"""homefetch: a deterministic 2-D fetch-and-carry benchmark harness.

Scenes, natural-language tasks, a gated execution pipeline, and Table-style
evaluation reports, all reproducible from a single seed.  The interface is
the command line (`homefetch.cli`) and its documented files; the Python
names of the package's modules are not a stable API.
"""

__version__ = "0.1.0"
