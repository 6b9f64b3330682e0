"""One executor for the stages that run independent units of work: fitting
the model pool and profiling the Rashomon-set members."""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator, Sequence

# (fn, units) of the fork_map a worker was forked for; set in the worker only
_inherited: tuple[Callable[[Any], Any], Sequence[Any]] | None = None


def _inherit(fn: Callable[[Any], Any], units: Sequence[Any]) -> None:
    global _inherited
    _inherited = (fn, units)


def _run(index: int) -> Any:
    fn, units = _inherited
    return fn(units[index])


@contextlib.contextmanager
def fork_map(fn: Callable[[Any], Any], units: Sequence[Any], workers: int,
             labels: Sequence[str]) -> Iterator[Iterator[Any]]:
    """Yield an iterator over `fn(unit)` for each of `units`, in their order.

    With one worker or one unit, `fn` runs in this process as the iterator is
    read. Otherwise the units run in min(`workers`, units) forked processes,
    handed out in order. The workers inherit `fn` and `units` through the
    fork, so only unit indices and results are pickled. A unit's exception is
    raised when its result is read; a lost worker makes the first result it
    takes with it raise RuntimeError("<that unit's label>: worker process
    died"). On exit the units not yet started are cancelled and the workers
    are joined, on success and on failure.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(units) <= 1:
        yield map(fn, units)
        return
    # imported here: a run that never forks does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a spawned worker imports numpy and the package again
    # (about 0.3 s on two cores) and could not inherit the units; the run has
    # no Python thread of its own, and the executor forks every worker before
    # it starts its thread
    executor = ProcessPoolExecutor(min(workers, len(units)),
                                   mp_context=multiprocessing.get_context("fork"),
                                   initializer=_inherit, initargs=(fn, units))
    try:
        futures = [executor.submit(_run, i) for i in range(len(units))]

        def results() -> Iterator[Any]:
            for future, label in zip(futures, labels):
                try:
                    result = future.result()
                except BrokenProcessPool:
                    raise RuntimeError(f"{label}: worker process died") from None
                yield result

        yield results()
    finally:
        executor.shutdown(cancel_futures=True)
