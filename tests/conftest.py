"""Fixtures shared by several test modules."""

import contextlib
import io
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from leafaudio import cli, workers


@pytest.fixture
def pool_threads(monkeypatch):
    """``pool_threads(n)`` gives the package's thread pool n threads for
    the rest of the test: a fresh pool, shut down when the test ends."""
    pools = []

    def resize(n):
        pools.append(ThreadPoolExecutor(max_workers=n, thread_name_prefix="leafaudio"))
        monkeypatch.setattr(workers, "_pool", pools[-1])

    yield resize
    for pool in pools:
        pool.shutdown()


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
