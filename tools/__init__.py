"""Build-only code: the artifact builders and the numpy references they
share with the test oracles. Nothing under ``cld2_ray/`` imports this
package (``tests/test_oracle_boundary.py`` checks that); run its
modules from the repository root, e.g. ``python -m tools.langmodel``."""
