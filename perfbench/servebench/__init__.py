"""The serving benchmark behind ``perfbench/run.py`` (see its docstring)."""
