"""The benchmark's one point of contact with maxreg's public API.

Later changes to maxreg may not edit the benchmark, so the changes the
roadmap plans must not break it:

* the ``fast`` keyword and the ``--fast`` flag select today's production
  path and are due to disappear once that path is the only one.  They are
  passed only while the callee or the parser still accepts them, and that
  is decided once per function, here;
* ``scan`` output may become exact, dropping ``remainder_bound``; it is
  read with a default of 0;
* a public function that no longer exists yields ``None`` from
  :meth:`Adapter.production`, so its per-layer metric is reported absent
  rather than as an error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
from fractions import Fraction

LAYERS = ("lattice", "maximal", "regularity", "search", "reporting", "cli")


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class Adapter:
    """Resolves public functions of the imported ``maxreg`` once per setup."""

    def __init__(self) -> None:
        self.package = importlib.import_module("maxreg")
        self.modules = {layer: _import(f"maxreg.{layer}") for layer in LAYERS}
        self._resolved: dict[str, object] = {}
        rc, _, _ = self._run_cli(["report", "0", "--format", "json", "--fast"])
        self.cli_fast = rc == 0

    def function(self, qualname: str):
        """``layer.name`` as it stands in maxreg, or None if it is gone."""
        layer, name = qualname.split(".")
        return getattr(self.modules.get(layer), name, None)

    def production(self, qualname: str):
        """The function bound to the production path, or None if it is gone.

        The result is cached, so timed regions pay for no signature lookups.
        """
        if qualname not in self._resolved:
            fn = self.function(qualname)
            if fn is not None and "fast" in inspect.signature(fn).parameters:
                fn = functools.partial(fn, fast=True)
            self._resolved[qualname] = fn
        return self._resolved[qualname]

    def _run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.modules["cli"].main(argv)
            except SystemExit as exc:       # argparse rejects unknown flags this way
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue(), err.getvalue()

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """``maxreg <argv>`` in-process on the production path: (exit code, stdout)."""
        rc, out, _ = self._run_cli(argv + ["--fast"] if self.cli_fast else argv)
        return rc, out


def read_scan(text: str) -> dict:
    """Parse ``maxreg scan --format json``; an exact scan has no remainder."""
    d = json.loads(text)
    return {
        "set": d["set"],
        "order": d["order"],
        "truncation": d["truncation"],
        "value": Fraction(d["value"]),
        "remainder_bound": Fraction(d.get("remainder_bound", 0)),
    }
