"""The repository's benchmark: three workloads over every entry path.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; ``BENCHMARK.json`` at the repository root
names the workloads and metrics.  Importing this package has no side
effects — modules that need the program import it only after
:func:`perfbench.bootstrap.use_checkout_source` has run.
"""
