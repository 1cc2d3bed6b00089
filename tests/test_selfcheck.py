"""How a self-check's outcome becomes its CheckResult: a failure, a crash
and a budget overrun, on stub bodies and on the real checks."""

import itertools
from types import SimpleNamespace

from covsum import selfcheck
from covsum.selfcheck import CheckResult


def _clock(monkeypatch, step):
    """Make every clock read of the checks ``step`` seconds after the last."""
    ticks = itertools.count(step=step)
    monkeypatch.setattr(selfcheck, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))


def test_a_failure_is_a_failed_result_with_its_detail():
    @selfcheck._check("demo")
    def demo():
        raise selfcheck._Failed("picks differ")

    assert demo() == CheckResult("demo", False, "picks differ")


def test_a_crash_is_a_failed_result():
    @selfcheck._check("demo")
    def demo():
        raise KeyError("row")

    assert demo() == CheckResult("demo", False, "crashed: KeyError('row')")


def test_a_check_over_its_budget_fails_with_its_detail(monkeypatch):
    _clock(monkeypatch, 6.0)

    def done():
        return "done"

    assert selfcheck._check("slow", seconds=6.0)(done)() == CheckResult("slow", False, "done")
    assert selfcheck._check("slow", seconds=6.5)(done)() == CheckResult("slow", True, "done")
    result = selfcheck.check_gradients()  # a budget of 5 s
    assert result == CheckResult("embedding-gradients", False, result.detail)
    assert result.detail.startswith("max relative error ")
    assert selfcheck.check_duplicate_suppression().passed  # a check with no budget


def test_a_real_check_raises_its_failure_detail(monkeypatch):
    monkeypatch.setattr(selfcheck.oracles, "brute_force_select", lambda *args: ([], []))
    result = selfcheck.check_greedy_matches_oracle()
    assert (result.name, result.passed) == ("greedy-oracle-equivalence", False)
    assert result.detail.startswith("pick mismatch: ")
    assert result.detail.endswith(" != []")


def test_a_real_check_that_crashes_is_a_failed_result(monkeypatch):
    def gone():
        raise OSError("no corpus")

    monkeypatch.setattr(selfcheck, "load_bundled_corpus", gone)
    assert selfcheck.check_determinism() == CheckResult(
        "determinism", False, "crashed: OSError('no corpus')"
    )


def test_determinism_compares_the_model_files(monkeypatch):
    # The second run's DM model differs in its last byte, a word_out value
    # that summarize never reads, so only the model file tells the runs apart.
    runs = itertools.count()
    cmd_train = selfcheck.cmd_train

    def train_then_flip(config):
        saved = cmd_train(config)
        if next(runs):
            path = saved[0]
            data = bytearray(path.read_bytes())
            data[-1] ^= 1
            path.write_bytes(data)
        return saved

    monkeypatch.setattr(selfcheck, "cmd_train", train_then_flip)
    assert selfcheck.check_determinism() == CheckResult("determinism", False, "reruns differ")
