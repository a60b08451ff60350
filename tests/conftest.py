from hypothesis import settings

# Derandomized examples keep the suite deterministic; no per-example deadline,
# since a first call can pay for imports and graph builds.
settings.register_profile("flowdim", derandomize=True, deadline=None)
settings.load_profile("flowdim")
