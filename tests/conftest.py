import os

import acceptance_report

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_condition() -> str:
    """The usable CPU count and the BLAS/OpenMP thread variables that are set:
    the pinned counts were taken on 2 usable CPUs with none of them set."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    set_ = [f"{name}={os.environ[name]}" for name in THREAD_VARIABLES if name in os.environ]
    return f"usable CPUs {cpus}, " + (", ".join(set_) or "no *_NUM_THREADS set")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_report.RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    terminalreporter.write_line(
        f"threads: {thread_condition()} (pins taken on 2 usable CPUs, none set)"
    )
    for num, ok, detail in sorted(acceptance_report.RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {status} - {detail}")
