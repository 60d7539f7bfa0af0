import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--extended", action="store_true", default=False,
        help="also run the full-scale reference reproduction (criterion 10, "
             "N up to 86.6e6; about a second)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--extended"):
        return
    skip = pytest.mark.skip(reason="needs --extended (full-scale reproduction)")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)
