"""Independent reference implementations of the runtime kernels.

Each module holds the numpy / pandas / pure-Python form of one layer of
``cld2_ray`` — the tests' oracle for the C kernel that layer runs at
runtime (``cld2_ray/native/quadscan.c``). The oracles keep plain
``str``-list interfaces and are written for clarity, not speed.

``cld2_ray`` never imports this package; ``tests/test_oracle_boundary.py``
checks that, that no runtime module defines an oracle name again, and
that every oracle here has a test that calls it. The parity tests live
in ``tests/test_native.py`` (one class per kernel), ``test_langid.py``,
``test_quality.py`` and ``test_extract.py``.
"""
