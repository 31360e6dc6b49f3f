"""The repo benchmark: end-to-end runs of the value-barrier app on the
process backend and the service tier, plus a per-layer replay.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/NOTES.md``.
"""
