"""Run a callable from two threads at once, for the thread-safety tests."""

import sys
import threading


def apply_in_two_threads(apply, inputs, repeats):
    """``repeats`` results of ``apply(inputs[i])`` from thread i, i = 0, 1, started
    together with a 1e-5 s switch interval; each thread's list, in call order."""
    barrier, results = threading.Barrier(2), [[], []]

    def run(i):
        barrier.wait(timeout=30)
        for _ in range(repeats):
            results[i].append(apply(inputs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results
