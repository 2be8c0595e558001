"""Test settings shared by the suite.

Property tests run under one registered hypothesis profile: derandomized, so
every run draws the same examples, with no deadline and few examples, so the
tier-1 suite stays deterministic and quick. Without hypothesis installed the
property tests skip themselves and the rest of the suite runs.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("nc_lab", derandomize=True, deadline=None, max_examples=25)
    settings.load_profile("nc_lab")
