"""Shared by the workload modules."""


class Mismatch(Exception):
    """An output of the library disagrees with the benchmark's own check."""
