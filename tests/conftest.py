"""Shared hypothesis settings for a slow CI box."""

import hypothesis

# The suite runs on a slow, shared host where one example can take far longer
# than usual; per-example deadlines would misfire on that, so profile them out
# globally.
hypothesis.settings.register_profile("pkg", deadline=None)
hypothesis.settings.load_profile("pkg")
