"""Set-up probe: import frachp and finish one small warm-up solve.

Run as a fresh process, it prints "ready" once the warm-up solve is done;
the benchmark times it from process start to that line.  The warm-up covers
the one-off OpenBLAS/scipy start-up that the first solve in a process pays.
"""

import os
import sys


def warm_up():
    from frachp import DegreeRule, solve_problem

    solve_problem(0.5, 0.6, 2, DegreeRule.uniform(2))


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    warm_up()
    print("ready", flush=True)
