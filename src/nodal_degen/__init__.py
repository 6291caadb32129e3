"""Exact certificates for nodal-surface degenerations and Severi-variety bounds.

The toolkit constructs nodal projective surfaces and central fibres of
semistable degenerations, certifies their singularity types (A1 nodes, T1
points of reducible fibres), verifies the local smoothing and intersection
identities of the underlying degeneration picture, and checks regularity of
node sets via independence of point conditions.  All arithmetic is exact
over the rationals; the one prime-field value, a rank modulo a word-size
prime, is reported as a cross-check and never certifies anything.

The package root defines only ``__version__``.  The library is its modules:
``polynomials``, ``linalg``, ``groebner``, ``singularities``, ``degeneration``,
``severi``, ``constructions``, ``cli`` (the ``nodal-degen`` command) and
``errors``.
"""

__version__ = "0.1.0"
