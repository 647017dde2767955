"""The names the bench's tracer wraps must exist in the package.

``bench/run.py --trace 1`` wraps each ``ssbm.<mod>.<fn>`` it names in a
``tracer.span("mod.fn")`` or ``tracer.count("mod.fn")`` call.  A rename in
``src/`` would break only traced bench runs, so this test reads the script's
source (without importing or running it) and checks every such name.
"""

import importlib
import pathlib
import re

_RUN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"
_TRACED = re.compile(r"""tracer\.(?:span|count)\(\s*["']([A-Za-z_]\w*)\.([A-Za-z_]\w*)["']""")


def test_every_traced_name_is_a_callable_of_the_package():
    names = _TRACED.findall(_RUN.read_text())
    # 14 when this test was written: a pattern that matched none would pass
    # vacuously
    assert len(names) >= 14
    for mod_name, fn_name in names:
        mod = importlib.import_module(f"ssbm.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"ssbm.{mod_name}.{fn_name}"
