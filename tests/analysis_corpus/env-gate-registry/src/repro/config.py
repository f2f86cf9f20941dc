import os


def debug_enabled():
    return os.environ.get("REPRO_FIXTURE_DEBUG", "0") == "1"  # finding
