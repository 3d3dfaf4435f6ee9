from hypothesis import settings

# Property tests draw the same examples on every run, and no example fails
# for running slowly on a host whose speed varies.
settings.register_profile("polylab", deadline=None, derandomize=True)
settings.load_profile("polylab")
