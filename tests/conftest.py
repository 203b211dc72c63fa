"""Hypothesis profiles.  The default profile is hypothesis's own; the
`ci` profile, loaded when HYPOTHESIS_PROFILE=ci (as the tier-1 workflow
sets it), runs more examples with no deadline.  A test that sets no
`max_examples` of its own, such as the differential tests in
`test_reader_oracles.py`, takes its example count from the profile."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
