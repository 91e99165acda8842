"""End-to-end and per-layer benchmark for the simulator and its serving stack.

Entry point: ``python3 perfbench/run.py --workload <sweep|serve-hot|
serve-cold> --seed N --seconds S --trace <0|1>``.  See ``README.md`` in
this directory for the workloads, the metrics and how they are measured.
"""
