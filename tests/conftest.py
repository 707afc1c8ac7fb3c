# Shared helpers live in helpers.py / oracles.py next to this file; having a
# conftest here puts the tests directory on sys.path for those imports.
import pytest

# helpers.py holds shared assertions; rewrite them so failures show values
pytest.register_assert_rewrite("helpers")
