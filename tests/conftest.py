"""Fixtures shared by several test modules."""

import contextlib
import io
from types import SimpleNamespace

import pytest

from leafaudio import cli


@pytest.fixture(scope="session")
def gradcheck_seed0():
    """One ``leafaudio gradcheck --seed 0`` run per session (~1.5 s): its exit
    code, stdout and stderr, and the ``grad_check_report`` rows it printed."""
    rows = []
    report = cli.grad_check_report

    def recording(*args, **kwargs):
        rows.extend(report(*args, **kwargs))
        return rows

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "grad_check_report", recording)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["gradcheck", "--seed", "0"])
    return SimpleNamespace(code=code, out=out.getvalue(), err=err.getvalue(), rows=rows)
