# Having a conftest here puts the tests directory on sys.path so the shared
# helpers module is importable from every test file.

# the ``pytester`` fixture, for the self-test of the suite's pytest settings
pytest_plugins = ["pytester"]
