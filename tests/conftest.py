"""Suite-wide settings: every hypothesis test draws the same examples on
every run (a seed derived from the test), so a run is reproducible."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
