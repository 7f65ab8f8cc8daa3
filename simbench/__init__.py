"""Single-source query benchmark for ``repro.core.exactsim.exactsim``."""
