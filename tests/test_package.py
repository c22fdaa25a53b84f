"""The package namespace: public names and submodules load on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqtaut
from sqtaut import pairing, rings

PACKAGE = Path(sqtaut.__file__).parent
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))


def test_every_public_name_is_its_home_modules_object():
    for name in sqtaut.__all__:
        home = importlib.import_module(f"sqtaut.{sqtaut._HOME[name]}")
        assert getattr(sqtaut, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from sqtaut import *", namespace)
    for name in sqtaut.__all__:
        assert namespace[name] is getattr(sqtaut, name), name


def test_dir_lists_every_public_name_and_submodule():
    assert set(sqtaut.__all__) | set(SUBMODULES) <= set(dir(sqtaut))


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "PairSpec", "__path_hook__"):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(sqtaut, name)
    assert not hasattr(sqtaut, "no_such_name")


def test_certificate_error_is_one_class():
    assert pairing.CertificateError is rings.CertificateError
    assert sqtaut.CertificateError is rings.CertificateError


def test_bare_import_loads_nothing_until_a_name_is_read():
    script = (
        "import sys\n"
        "import sqtaut\n"
        "assert [m for m in sys.modules if m.startswith('sqtaut.')] == []\n"
        "assert 'theorem5_class' not in vars(sqtaut)\n"
        "f = sqtaut.theorem5_class\n"
        "assert vars(sqtaut)['theorem5_class'] is f\n"  # later reads are lookups
        "assert 'sqtaut.curve' not in sys.modules\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(sqtaut, name) is sys.modules['sqtaut.' + name], name\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
