"""``repro.nn.lazy`` — holds :mod:`equiv`, the per-dtype tolerance policy
the benchmark uses to compare predictions against the eager reference.
"""
