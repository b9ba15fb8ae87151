"""Seeded end-to-end benchmark of the Sailor planner, controller and replay.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics as JSON on the
last line of standard output.  See ``perfbench/LAYERS.md`` for the
workloads, the metrics and which layer metric should move which end-to-end
metric on which workload.
"""
