import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from covsum import embedding, harness
from covsum.corpus import build_vocabulary
from covsum.embedding import (
    KINDS,
    EmbeddingModel,
    NegativeSampler,
    TrainConfig,
    TrainingParagraph,
    build_training_paragraphs,
    dm_context,
    load_model,
    negative_sampling_gradients,
    pair_loss,
    paragraph_vector,
    save_model,
    train,
    train_both,
    train_each,
)

from conftest import make_doc
from reference import _sigmoid as sigmoid_reference
from reference import train_reference


def test_pair_loss_goldens():
    assert pair_loss(0.0, 1) == pytest.approx(math.log(2.0))
    assert pair_loss(0.0, 0) == pytest.approx(math.log(2.0))
    # stable in both tails
    assert pair_loss(100.0, 1) < 1e-40
    assert pair_loss(-100.0, 0) < 1e-40
    assert pair_loss(-100.0, 1) == pytest.approx(100.0)
    assert pair_loss(750.0, 0) == pytest.approx(750.0)  # no exp overflow


def test_training_paragraph_requires_tokens():
    with pytest.raises(ValueError):
        TrainingParagraph(0, ())


def test_train_config_validation():
    for bad in (dict(dim=0), dict(epochs=0), dict(negatives=0), dict(learning_rate=0.0),
                dict(learning_rate=math.inf), dict(learning_rate=math.nan),
                dict(unigram_power=math.nan), dict(seed=-1)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    TrainConfig(context_size=0)  # zero context is legal (DBOW-style DM)


def test_sampler_follows_powered_counts():
    sampler = NegativeSampler(np.array([8.0, 1.0]), power=0.75, seed=123)
    draws = sampler.draw(20000)
    want = 8**0.75 / (8**0.75 + 1.0)  # ~0.82629
    assert abs(np.mean(draws == 0) - want) < 0.01


def test_sampler_never_draws_zero_count_terms():
    sampler = NegativeSampler(np.array([0.0, 5.0, 0.0]), seed=7)
    assert set(sampler.draw(1000)) == {1}


def test_sampler_validation():
    with pytest.raises(ValueError):
        NegativeSampler(np.array([]))
    with pytest.raises(ValueError):
        NegativeSampler(np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        NegativeSampler(np.array([0.0, 0.0]))


def _paras():
    return [
        TrainingParagraph(0, (0, 1, 2, 1)),
        TrainingParagraph(1, (3, 2)),
        TrainingParagraph(2, (4, 0, 1)),
    ]


def test_train_validates_inputs():
    cfg = TrainConfig(dim=4, epochs=1)
    with pytest.raises(ValueError):
        train([], cfg, "dm")
    with pytest.raises(ValueError):
        train([TrainingParagraph(1, (0,))], cfg, "dm")  # ids must start at 0
    with pytest.raises(ValueError):
        train(_paras(), cfg, "dm", vocab_size=3)  # token id 4 out of range
    with pytest.raises(ValueError):
        train(_paras(), cfg, "skipgram")
    with pytest.raises(ValueError, match="term id 4"):
        list(train_both(_paras(), cfg, vocab_size=3))
    negative = [TrainingParagraph(0, (0, 1)), TrainingParagraph(1, (0, 1, -1, 2))]
    with pytest.raises(ValueError, match="paragraph 1 has negative term id -1"):
        train(negative, cfg, "dbow", vocab_size=4)
    with pytest.raises(ValueError, match="paragraph 1 has negative term id -1"):
        list(train_both(negative, cfg, vocab_size=4))


def test_train_deterministic_and_seed_sensitive():
    cfg = TrainConfig(dim=8, epochs=2, negatives=2, context_size=2, seed=5)
    a = train(_paras(), cfg, "dm", vocab_size=5)
    b = train(_paras(), cfg, "dm", vocab_size=5)
    assert np.array_equal(a.para_matrix, b.para_matrix)
    assert np.array_equal(a.word_in, b.word_in)
    assert np.array_equal(a.word_out, b.word_out)

    c = train(_paras(), TrainConfig(dim=8, epochs=2, negatives=2, context_size=2, seed=6),
              "dm", vocab_size=5)
    assert not np.array_equal(a.para_matrix, c.para_matrix)


def test_dm_without_context_trains_exactly_like_dbow():
    cfg = TrainConfig(dim=6, epochs=3, negatives=2, context_size=0, seed=11)
    dm = train(_paras(), cfg, "dm", vocab_size=5)
    dbow = train(_paras(), cfg, "dbow", vocab_size=5)
    assert np.array_equal(dm.para_matrix, dbow.para_matrix)
    assert np.array_equal(dm.word_out, dbow.word_out)
    assert dm.word_in is not None and dbow.word_in is None


def test_train_steps_apply_batch_gradients():
    """Replay training by hand: each SGD step must subtract the learning
    rate times the analytic gradient of that step's (target, negatives)."""
    par = TrainingParagraph(0, (3, 1))
    cfg = TrainConfig(dim=3, context_size=2, epochs=1, negatives=2,
                      learning_rate=0.5, seed=42)
    got = train([par], cfg, "dm", vocab_size=5)

    seed_init, seed_order, seed_neg = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_init = np.random.default_rng(seed_init)
    d = cfg.dim
    model = EmbeddingModel(
        kind="dm",
        para_matrix=rng_init.uniform(-0.5 / d, 0.5 / d, (1, d)),
        word_in=rng_init.uniform(-0.5 / d, 0.5 / d, (5, d)),
        word_out=np.zeros((5, d)),
        context_size=cfg.context_size,
    )
    counts = np.bincount(np.asarray(par.tokens), minlength=5)
    sampler = NegativeSampler(counts, cfg.unigram_power, seed_neg)
    rng_order = np.random.default_rng(seed_order)

    lr_start, lr_end = cfg.learning_rate, cfg.learning_rate / 100.0
    total = cfg.epochs * len(par.tokens)
    step = 0
    for t in rng_order.permutation(len(par.tokens)):
        lr = lr_start + (lr_end - lr_start) * (step / (total - 1))
        negs = tuple(int(x) for x in sampler.draw(cfg.negatives))
        g_para, g_in, g_out = negative_sampling_gradients(model, [par], [(0, int(t), negs)])
        model.para_matrix = model.para_matrix - lr * g_para
        model.word_in = model.word_in - lr * g_in
        model.word_out = model.word_out - lr * g_out
        step += 1

    for got_mat, sim_mat in ((got.para_matrix, model.para_matrix),
                             (got.word_in, model.word_in),
                             (got.word_out, model.word_out)):
        assert np.allclose(got_mat, sim_mat, rtol=1e-9, atol=1e-15)


def _assert_same_model(got, want):
    assert np.array_equal(got.para_matrix, want.para_matrix)
    assert np.array_equal(got.word_out, want.word_out)
    if want.word_in is None:
        assert got.word_in is None
    else:
        assert np.array_equal(got.word_in, want.word_in)


@st.composite
def _training_runs(draw):
    """Small corpora over 1-8 terms, so negatives often hit the target and
    DM contexts often repeat a token."""
    vocab = draw(st.integers(1, 8))
    tokens = st.lists(st.integers(0, vocab - 1), min_size=1, max_size=12)
    paragraphs = [
        TrainingParagraph(i, tuple(toks))
        for i, toks in enumerate(draw(st.lists(tokens, min_size=1, max_size=5)))
    ]
    cfg = TrainConfig(
        dim=draw(st.integers(1, 6)),
        context_size=draw(st.integers(0, 4)),
        epochs=draw(st.integers(1, 3)),
        negatives=draw(st.integers(1, 6)),
        learning_rate=draw(st.sampled_from([0.025, 0.5, 2.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return paragraphs, cfg, draw(st.sampled_from(KINDS)), vocab


@settings(max_examples=150, deadline=None)
@given(_training_runs())
def test_train_matches_per_target_reference(run):
    paragraphs, cfg, kind, vocab = run
    _assert_same_model(
        train(paragraphs, cfg, kind, vocab_size=vocab),
        train_reference(paragraphs, cfg, kind, vocab_size=vocab),
    )


def test_train_matches_reference_on_a_single_target():
    par = [TrainingParagraph(0, (2,))]
    cfg = TrainConfig(dim=5, context_size=3, epochs=1, negatives=4, seed=9)
    for kind in KINDS:  # total_steps == 1: the learning rate never decays
        _assert_same_model(train(par, cfg, kind, vocab_size=4),
                           train_reference(par, cfg, kind, vocab_size=4))


def test_train_matches_reference_across_chunks():
    rng = np.random.default_rng(4)
    paragraphs = [
        TrainingParagraph(i, tuple(int(t) for t in rng.integers(0, 40, rng.integers(1, 30))))
        for i in range(160)
    ]
    assert sum(len(p.tokens) for p in paragraphs) > 2 * embedding._CHUNK
    cfg = TrainConfig(dim=8, context_size=4, epochs=2, negatives=5, seed=21)
    for kind in KINDS:
        _assert_same_model(train(paragraphs, cfg, kind), train_reference(paragraphs, cfg, kind))


def _assert_train_both_matches_two_fits(paragraphs, cfg, vocab):
    got = list(train_both(paragraphs, cfg, vocab_size=vocab))
    assert [model.kind for model in got] == list(KINDS)
    for model, kind in zip(got, KINDS):
        want = train(paragraphs, cfg, kind, vocab_size=vocab)
        _assert_same_model(model, want)
        assert model.context_size == want.context_size
        # train runs the same loop, so also hold the joint pass to the reference
        _assert_same_model(model, train_reference(paragraphs, cfg, kind, vocab_size=vocab))


@settings(max_examples=150, deadline=None)
@given(_training_runs())
def test_train_both_matches_two_fits(run):
    paragraphs, cfg, _, vocab = run
    _assert_train_both_matches_two_fits(paragraphs, cfg, vocab)


def test_train_both_matches_two_fits_across_chunks():
    rng = np.random.default_rng(6)
    paragraphs = [
        TrainingParagraph(i, tuple(int(t) for t in rng.integers(0, 50, rng.integers(1, 30))))
        for i in range(250)
    ]
    assert sum(len(p.tokens) for p in paragraphs) > 2 * embedding._CHUNK
    cfg = TrainConfig(dim=7, context_size=3, epochs=2, negatives=4, seed=13)
    _assert_train_both_matches_two_fits(paragraphs, cfg, None)


def test_train_both_yields_dm_before_a_dbow_divergence():
    # DM stays finite here and DBOW diverges: the DM model comes out first,
    # then train's own error for DBOW.
    cfg = TrainConfig(dim=4, epochs=2, negatives=2, context_size=4, learning_rate=1e23, seed=3)
    with np.errstate(all="ignore"):
        models = train_both(_paras(), cfg, vocab_size=5)
        _assert_same_model(next(models), train(_paras(), cfg, "dm", vocab_size=5))
        with pytest.raises(ArithmeticError) as want:
            train(_paras(), cfg, "dbow", vocab_size=5)
        with pytest.raises(ArithmeticError) as got:
            next(models)
    assert str(got.value) == str(want.value)


def test_train_refuses_a_joint_pass_of_another_kind():
    cfg = TrainConfig(dim=4, epochs=1, negatives=2, seed=2)
    joint = train_both(_paras(), cfg, vocab_size=5)
    with pytest.raises(ValueError, match="yields a dm model next, not dbow"):
        train(_paras(), cfg, "dbow", vocab_size=5, joint=joint)
    # the refused model is consumed; the pass goes on with DBOW
    _assert_same_model(train(_paras(), cfg, "dbow", vocab_size=5, joint=joint),
                       train(_paras(), cfg, "dbow", vocab_size=5))


def test_train_refuses_an_exhausted_joint_pass():
    cfg = TrainConfig(dim=4, epochs=1, negatives=2, seed=2)
    joint = train_both(_paras(), cfg, vocab_size=5)
    for kind in KINDS:
        train(_paras(), cfg, kind, vocab_size=5, joint=joint)
    with pytest.raises(ValueError, match="exhausted; it holds no dbow model"):
        train(_paras(), cfg, "dbow", vocab_size=5, joint=joint)


def test_train_refuses_a_joint_pass_over_other_paragraphs():
    cfg = TrainConfig(dim=4, epochs=1, negatives=2, seed=2)
    with pytest.raises(ValueError, match="3 paragraphs over 5 terms, not 2 over 5"):
        train(_paras()[:2], cfg, "dm", vocab_size=5, joint=train_both(_paras(), cfg, vocab_size=5))


def test_train_refuses_a_joint_pass_over_another_vocabulary():
    cfg = TrainConfig(dim=4, epochs=1, negatives=2, seed=2)
    with pytest.raises(ValueError, match="3 paragraphs over 5 terms, not 3 over 6"):
        train(_paras(), cfg, "dm", vocab_size=6, joint=train_both(_paras(), cfg, vocab_size=5))


_SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                  1.0, -1.0, 709.8, -709.8, 745.0, -745.0, 1e308, -1e308,
                  math.inf, -math.inf, math.nan, -math.nan]


def _assert_sigmoid_bits(x):
    want = sigmoid_reference(x.copy())
    got = embedding._sigmoid(x.copy())
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sigmoid_matches_reference_bits_at_the_edges():
    _assert_sigmoid_bits(np.array(_SIGMOID_EDGES))
    # the scratch buffer of a training step, and a 2-D array
    x = np.array(_SIGMOID_EDGES).reshape(2, 9)
    want = sigmoid_reference(x.copy())
    got = embedding._sigmoid(x, np.full((2, *x.shape), np.nan))
    assert got is x
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=8)))
def test_sigmoid_matches_reference_bits(x):
    _assert_sigmoid_bits(x)


def test_train_calls_share_no_state():
    # A step's buffers belong to its call: a joint pass and fits of another
    # shape in between leave a second call's model unchanged.
    cfg = TrainConfig(dim=5, epochs=2, negatives=3, context_size=2, seed=8)
    other = TrainConfig(dim=7, epochs=1, negatives=6, context_size=3, seed=9)
    for kind in KINDS:
        first = train(_paras(), cfg, kind, vocab_size=5)
        list(train_both(_paras(), other, vocab_size=6))
        train(_paras(), other, kind, vocab_size=6)
        _assert_same_model(train(_paras(), cfg, kind, vocab_size=5), first)
    # Two train_each calls advanced in turn, one group per wave: each wave
    # makes its step buffers while the other call's waves are still open.
    runs = [
        (cfg, 5, [_paras(), _paras()[:1], [TrainingParagraph(0, (2, 2, 4, 2))]]),
        (other, 6, [[TrainingParagraph(0, (5, 1, 5, 5, 0))], _paras()[:2], _paras()]),
    ]
    with mock.patch.object(embedding, "_WAVE_VALUES", 1):
        for kind in KINDS:
            calls = [train_each(groups, c, kind, vocab_size=v) for c, v, groups in runs]
            for i in range(3):
                for call, (c, v, groups) in zip(calls, runs):
                    _assert_same_model(next(call), train(groups[i], c, kind, vocab_size=v))
            assert [next(call, None) for call in calls] == [None, None]


@st.composite
def _lockstep_runs(draw):
    """1-8 groups of unequal length over at most 8 terms, sometimes with a
    single-target group, so rows repeat and fits finish at different steps."""
    vocab = draw(st.integers(1, 8))
    tokens = st.lists(st.integers(0, vocab - 1), min_size=1, max_size=12)
    groups = [
        [TrainingParagraph(i, tuple(toks)) for i, toks in enumerate(paragraphs)]
        for paragraphs in draw(
            st.lists(st.lists(tokens, min_size=1, max_size=4), min_size=1, max_size=8)
        )
    ]
    if draw(st.booleans()):
        single = [TrainingParagraph(0, (draw(st.integers(0, vocab - 1)),))]
        groups.insert(draw(st.integers(0, len(groups))), single)
    cfg = TrainConfig(
        dim=draw(st.integers(1, 6)),
        context_size=draw(st.integers(0, 4)),
        epochs=draw(st.integers(1, 4)),
        negatives=draw(st.integers(1, 6)),
        learning_rate=draw(st.sampled_from([0.025, 0.5, 2.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    size = draw(st.sampled_from([vocab, vocab + 3, None]))
    # one wave, a few, or one group per wave
    wave_values = draw(st.sampled_from([embedding._WAVE_VALUES, 24, 1]))
    return groups, cfg, draw(st.sampled_from(KINDS)), size, wave_values


def _assert_lockstep_matches_separate_fits(groups, cfg, kind, size):
    got = list(train_each(groups, cfg, kind, vocab_size=size))
    assert len(got) == len(groups)
    for model, group in zip(got, groups):
        _assert_same_model(model, train(group, cfg, kind, vocab_size=size))


@settings(max_examples=150, deadline=None)
@given(_lockstep_runs())
def test_train_each_matches_separate_fits(run):
    *run, wave_values = run
    with mock.patch.object(embedding, "_WAVE_VALUES", wave_values):
        _assert_lockstep_matches_separate_fits(*run)


def test_waves_cover_the_groups_in_order():
    groups = [[TrainingParagraph(0, tuple(range(n)))] for n in (5, 1, 3, 3, 8, 2, 2)]
    rows = [5, 1, 3, 3, 8, 2, 2]  # distinct terms per group, 24 in all
    for wave_values, sizes in ((10**6, [7]), (24 * 4 // 2, [4, 3]), (24 * 4 // 3, [3, 2, 2]),
                               (1, [1] * 7)):
        with mock.patch.object(embedding, "_WAVE_VALUES", wave_values):
            waves = embedding._waves(groups, 4)
        assert [w.stop - w.start for w in waves] == sizes
        assert waves[0].start == 0 and waves[-1].stop == len(groups)
        assert all(a.stop == b.start for a, b in zip(waves, waves[1:]))
        mean = sum(rows) / len(waves)
        assert all(sum(rows[w]) < mean + rows[w.stop - 1] for w in waves)
    assert embedding._waves([], 4) == []


def test_train_each_matches_separate_fits_across_chunks():
    rng = np.random.default_rng(8)
    groups = [
        [
            TrainingParagraph(i, tuple(int(t) for t in rng.integers(0, 60, rng.integers(1, 30))))
            for i in range(count)
        ]
        for count in (300, 90, 12, 1)
    ]
    # One term: every out slot and every full context hits one row, so each
    # step chains a row through all negatives + 1 and context_size slots.
    groups.append([TrainingParagraph(i, (7,) * n) for i, n in enumerate((12, 5, 1, 30))])
    cfg = TrainConfig(dim=8, context_size=4, epochs=2, negatives=5, seed=21)
    steps = [cfg.epochs * sum(len(p.tokens) for p in g) for g in groups]
    # the first chunk gives each of the fits this many steps
    assert max(steps) > embedding._LOCKSTEP_TARGETS // len(groups)
    for kind in KINDS:
        _assert_lockstep_matches_separate_fits(groups, cfg, kind, 70)


def test_train_each_validates_every_group():
    cfg = TrainConfig(dim=4, epochs=1)
    with pytest.raises(ValueError, match="term id 4"):
        list(train_each([_paras()[:1], _paras()], cfg, "dbow", vocab_size=3))
    negative = [TrainingParagraph(0, (0, 1, -1, 2))]
    with pytest.raises(ValueError, match="paragraph 0 has negative term id -1"):
        list(train_each([_paras()[:1], negative], cfg, "dbow", vocab_size=4))
    with pytest.raises(ValueError, match="kind"):
        list(train_each([_paras()], cfg, "skipgram"))
    assert list(train_each([], cfg, "dm")) == []


def test_diverged_training_is_refused():
    cfg = TrainConfig(dim=4, epochs=3, negatives=2, learning_rate=1e200, seed=1)
    for kind in KINDS:
        with np.errstate(all="ignore"):
            with pytest.raises(ArithmeticError, match="diverged"):
                train(_paras(), cfg, kind, vocab_size=5)
            with pytest.raises(ArithmeticError, match="diverged"):
                list(train_each([_paras(), _paras()[:1]], cfg, kind, vocab_size=5))
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="diverged"):
        list(train_both(_paras(), cfg, vocab_size=5))


def test_degenerate_single_term_vocab_runs():
    par = TrainingParagraph(0, (0, 0, 0))
    cfg = TrainConfig(dim=4, epochs=2, negatives=1, seed=1)
    model = train([par], cfg, "dbow")
    assert model.vocab_size == 1
    assert np.isfinite(model.para_matrix).all()
    assert np.isfinite(model.word_out).all()


def test_dm_context_predictor():
    rng = np.random.default_rng(0)
    model = EmbeddingModel(
        kind="dm",
        para_matrix=rng.normal(size=(1, 4)),
        word_out=np.zeros((5, 4)),
        word_in=rng.normal(size=(5, 4)),
        context_size=2,
    )
    par = TrainingParagraph(0, (2, 0, 4))
    # no context at position 0: predictor is the bare paragraph row
    assert np.array_equal(dm_context(model, par, 0), model.para_matrix[0])
    # two context words at position 2
    want = (model.para_matrix[0] + model.word_in[2] + model.word_in[0]) / 3.0
    assert np.array_equal(dm_context(model, par, 2), want)
    with pytest.raises(IndexError):
        dm_context(model, par, 3)


def test_paragraph_vector_is_a_copy():
    model = train(_paras(), TrainConfig(dim=4, epochs=1), "dbow", vocab_size=5)
    vec = paragraph_vector(model, 1)
    vec[0] += 100.0
    assert paragraph_vector(model, 1)[0] != vec[0]
    with pytest.raises(IndexError):
        paragraph_vector(model, 3)


def test_save_load_round_trip(tmp_path):
    for kind in ("dm", "dbow"):
        model = train(_paras(), TrainConfig(dim=5, epochs=1, context_size=3, seed=2),
                      kind, vocab_size=5)
        path = tmp_path / f"{kind}.cvem"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == kind
        assert loaded.context_size == model.context_size
        assert np.array_equal(loaded.para_matrix, model.para_matrix)
        assert np.array_equal(loaded.word_out, model.word_out)
        if kind == "dm":
            assert np.array_equal(loaded.word_in, model.word_in)
        else:
            assert loaded.word_in is None
        # byte-identical resave
        resaved = tmp_path / f"{kind}2.cvem"
        save_model(loaded, resaved)
        assert path.read_bytes() == resaved.read_bytes()


def test_load_rejects_corrupt_files(tmp_path):
    model = train(_paras(), TrainConfig(dim=3, epochs=1), "dbow", vocab_size=5)
    path = tmp_path / "m.cvem"
    save_model(model, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.cvem"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="not a model file"):
        load_model(bad)

    bad.write_bytes(raw[:10])
    with pytest.raises(ValueError, match="not a model file"):
        load_model(bad)

    bad.write_bytes(raw[:4] + b"\x02" + raw[5:])
    with pytest.raises(ValueError, match="unsupported model version 2"):
        load_model(bad)

    bad.write_bytes(raw[:5] + b"\x07" + raw[6:])
    with pytest.raises(ValueError, match="unknown model kind code 7"):
        load_model(bad)

    bad.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_model(bad)

    bad.write_bytes(raw[:5] + b"\x00" + raw[6:])  # a DM header needs word_in too
    with pytest.raises(ValueError, match="truncated"):
        load_model(bad)

    bad.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing bytes"):
        load_model(bad)

    # headers of an empty matrix, each with as many bytes as it declares
    for v, p, d in [(5, 3, 0), (0, 3, 3), (5, 0, 3)]:
        header = embedding._HEADER.pack(b"CVEM", 1, 1, 0, v, p, d)
        bad.write_bytes(header + b"\x00" * (8 * d * (p + v)))
        with pytest.raises(ValueError, match=f"bad.cvem: empty model: dim {d}, vocab_size {v}"):
            load_model(bad)


def test_load_reads_matrices_without_a_whole_file_copy(tmp_path):
    rng = np.random.default_rng(0)
    model = EmbeddingModel(
        kind="dm",
        para_matrix=rng.normal(size=(40, 32)),
        word_out=rng.normal(size=(3000, 32)),
        word_in=rng.normal(size=(3000, 32)),
        context_size=2,
    )
    path = tmp_path / "m.cvem"
    save_model(model, path)
    tracemalloc.start()
    try:
        loaded = load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_same_model(loaded, model)
    assert peak < 1.2 * path.stat().st_size


def _random_dm_model(seed):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(
        kind="dm",
        para_matrix=rng.normal(size=(40, 32)),
        word_out=rng.normal(size=(3000, 32)),
        word_in=rng.normal(size=(3000, 32)),
        context_size=2,
    )


def test_load_reads_only_the_paragraph_rows(tmp_path):
    model = _random_dm_model(1)
    path = tmp_path / "m.cvem"
    save_model(model, path)
    tracemalloc.start()
    try:
        loaded = load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_same_model(loaded, model)
    assert peak < model.para_matrix.nbytes + 64 * 1024


def test_loaded_model_outlives_its_file(tmp_path):
    first, second = _random_dm_model(2), _random_dm_model(3)
    path = tmp_path / "m.cvem"
    save_model(first, path)
    loaded = load_model(path)
    with harness._written(path) as part:
        save_model(second, part)
    _assert_same_model(load_model(path), second)
    path.unlink()
    _assert_same_model(loaded, first)


def test_resaving_a_loaded_model_onto_its_own_file(tmp_path):
    # The loaded word matrices are mapped from the file being replaced, so
    # save_model must not truncate it before it has read them.
    small = EmbeddingModel(
        kind="dbow",
        para_matrix=np.arange(6.0).reshape(3, 2),
        word_out=np.arange(8.0).reshape(4, 2),
        word_in=None,
        context_size=0,
    )
    for name, model in (("small.cvem", small), ("dm.cvem", _random_dm_model(5))):
        path = tmp_path / name
        save_model(model, path)
        raw = path.read_bytes()
        loaded = load_model(path)
        save_model(loaded, path)
        assert path.read_bytes() == raw
        _assert_same_model(loaded, model)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dm.cvem", "small.cvem"]


def test_writes_to_a_loaded_model_never_reach_its_file(tmp_path):
    model = _random_dm_model(4)
    path = tmp_path / "m.cvem"
    save_model(model, path)
    raw = path.read_bytes()
    loaded = load_model(path)
    loaded.word_out[:] = 7.0
    loaded.word_in[0] += 1.0
    assert (loaded.word_out == 7.0).all()
    assert np.array_equal(loaded.word_in[0], model.word_in[0] + 1.0)
    del loaded
    assert path.read_bytes() == raw
    _assert_same_model(load_model(path), model)


def test_build_training_paragraphs_layout(tiny_docs):
    vocab = build_vocabulary(tiny_docs)
    paragraphs, index = build_training_paragraphs(tiny_docs, vocab)
    # one whole-document paragraph plus one per sentence, for each document
    assert len(paragraphs) == sum(1 + len(d.sentences) for d in tiny_docs)
    assert [p.paragraph_id for p in paragraphs] == list(range(len(paragraphs)))

    ids = index["d0"]
    assert ids.document == 0
    assert ids.sentences == (1, 2, 3)
    doc_par = paragraphs[ids.document]
    assert list(doc_par.tokens) == vocab.ids(tiny_docs[0].all_tokens())
    sent_par = paragraphs[ids.sentences[1]]
    assert list(sent_par.tokens) == vocab.ids(tiny_docs[0].sentences[1].tokens)

    assert index["d1"].document == 4
