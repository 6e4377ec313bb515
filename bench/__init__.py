"""The serving benchmark: four workloads, end-to-end metrics, a layer ladder.

See ``bench/README.md``.  Everything here drives ``repro`` from outside
through its public functions; nothing under ``src/`` knows it exists.
"""
