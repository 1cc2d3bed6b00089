import dataclasses
import itertools
import math
import tracemalloc
import warnings
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
    fit,
    load_model,
    paragraph_index,
    save_model,
    train,
)
from covsum.oracles import dm_context, negative_sampling_gradients, pair_loss

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
    # A paragraph's row is its position, so the refusal names that position.
    cfg = TrainConfig(dim=4, epochs=1)
    paragraphs = [TrainingParagraph((0, 1)), TrainingParagraph((2,)), TrainingParagraph(())]
    with pytest.raises(ValueError, match="paragraph 2 has no tokens"):
        train(paragraphs, cfg, "dbow")
    with pytest.raises(ValueError, match="paragraph 2 has no tokens"):
        list(fit([paragraphs], cfg, KINDS))
    with pytest.raises(ValueError, match="paragraph 2 has no tokens"):
        list(fit([paragraphs[:2], paragraphs], cfg, ("dm",)))


def test_train_config_validation():
    for bad in (dict(dim=0), dict(epochs=0), dict(negatives=0), dict(learning_rate=0.0),
                dict(learning_rate=math.inf), dict(learning_rate=math.nan),
                dict(unigram_power=math.nan), dict(seed=-1), dict(context_size=-1)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    TrainConfig(context_size=0)  # zero context is legal (DBOW-style DM)


def test_sampler_follows_powered_counts():
    sampler = NegativeSampler(np.array([8.0, 1.0]), power=0.75)
    draws = sampler.ids(np.random.default_rng(123).random(20000))
    want = 8**0.75 / (8**0.75 + 1.0)  # ~0.82629
    assert abs(np.mean(draws == 0) - want) < 0.01


def test_sampler_never_draws_zero_count_terms():
    sampler = NegativeSampler(np.array([0.0, 5.0, 0.0]))
    assert set(sampler.ids(np.random.default_rng(7).random(1000))) == {1}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=8).filter(any), st.data())
def test_sampler_maps_sorted_draws_as_it_maps_them_in_draw_order(counts, data):
    # A lockstep wave maps its draw through each fit's weights in sorted
    # order and puts the ids back in draw order. Draws include 0.0, repeats
    # and the bin edges, where a zero-count term's bin is empty.
    sampler = NegativeSampler(counts)
    edges = sampler._cum / sampler._cum[-1]
    pool = [0.0, *edges[edges < 1.0], *np.nextafter(edges, 0.0)]
    draws = st.one_of(st.sampled_from(pool), st.floats(0.0, 1.0, exclude_max=True))
    uniforms = np.array(data.draw(st.lists(draws, min_size=1, max_size=40)))
    by = np.argsort(uniforms)
    ids = np.empty(len(uniforms), dtype=np.int64)
    ids[by] = sampler.ids(uniforms[by])
    assert np.array_equal(ids, sampler.ids(uniforms))


def test_split_negative_draws_equal_one_draw():
    # A lockstep wave draws its seed_neg uniforms at once; train draws them
    # one chunk of targets at a time, in (targets, negatives) shapes.
    seed_neg = np.random.SeedSequence(5).spawn(3)[2]
    for a, b in ((0, 7), (6, 0), (1, 1), (5 * embedding._CHUNK, 37), (3, 5000)):
        whole = np.random.default_rng(seed_neg).random(a + b)
        rng = np.random.default_rng(seed_neg)
        parts = np.concatenate([rng.random(a), rng.random((b, 1)).ravel()])
        assert np.array_equal(whole.view(np.uint64), parts.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 7), st.integers(1, 6), st.data())
def test_einsum_outer_product_updates_rows_as_multiply_does(fits, slots, dim, data):
    # The lockstep update takes g[f, i] * h[f, d] from np.einsum, which adds
    # each product to 0.0: only a -0.0 product comes out +0.0. A word_out
    # row starts at +0.0 and is never -0.0, so adding either to it gives the
    # same bits as train's broadcast multiply.
    values = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, 5e-324]))
    g = data.draw(hnp.arrays(np.float64, (fits, slots), elements=values))
    h = data.draw(hnp.arrays(np.float64, (fits, dim), elements=values))
    rows = data.draw(hnp.arrays(np.float64, (fits, slots, dim), elements=values))
    rows[rows == 0.0] = 0.0  # +0.0, as word_out rows are
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, inf - inf
        want = np.multiply(g[:, :, None], h[:, None, :])
        got = np.einsum("fi,fd->fid", g, h, out=np.empty_like(want))
        assert np.array_equal(got.view(np.uint64), (want + 0.0).view(np.uint64))
        assert np.array_equal((rows + got).view(np.uint64), (rows + want).view(np.uint64))


def test_sampler_validation():
    with pytest.raises(ValueError):
        NegativeSampler(np.array([]))
    with pytest.raises(ValueError):
        NegativeSampler(np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        NegativeSampler(np.array([0.0, 0.0]))


def _paras():
    return [
        TrainingParagraph((0, 1, 2, 1)),
        TrainingParagraph((3, 2)),
        TrainingParagraph((4, 0, 1)),
    ]


def test_train_validates_inputs():
    cfg = TrainConfig(dim=4, epochs=1)
    with pytest.raises(ValueError):
        train([], cfg, "dm")
    with pytest.raises(ValueError):
        train(_paras(), cfg, "dm", vocab_size=3)  # token id 4 out of range
    with pytest.raises(ValueError):
        train(_paras(), cfg, "skipgram")
    with pytest.raises(ValueError, match="term id 4"):
        list(fit([_paras()], cfg, KINDS, vocab_size=3))
    negative = [TrainingParagraph((0, 1)), TrainingParagraph((0, 1, -1, 2))]
    with pytest.raises(ValueError, match="paragraph 1 has negative term id -1"):
        train(negative, cfg, "dbow", vocab_size=4)
    with pytest.raises(ValueError, match="paragraph 1 has negative term id -1"):
        list(fit([negative], cfg, KINDS, vocab_size=4))


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
    par = TrainingParagraph((3, 1))
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
    sampler = NegativeSampler(counts, cfg.unigram_power)
    rng_order, rng_neg = np.random.default_rng(seed_order), np.random.default_rng(seed_neg)

    lr_start, lr_end = cfg.learning_rate, cfg.learning_rate / 100.0
    total = cfg.epochs * len(par.tokens)
    step = 0
    for t in rng_order.permutation(len(par.tokens)):
        lr = lr_start + (lr_end - lr_start) * (step / (total - 1))
        negs = tuple(int(x) for x in sampler.ids(rng_neg.random(cfg.negatives)))
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
        TrainingParagraph(tuple(toks))
        for toks in draw(st.lists(tokens, min_size=1, max_size=5))
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
    par = [TrainingParagraph((2,))]
    cfg = TrainConfig(dim=5, context_size=3, epochs=1, negatives=4, seed=9)
    for kind in KINDS:  # total_steps == 1: the learning rate never decays
        _assert_same_model(train(par, cfg, kind, vocab_size=4),
                           train_reference(par, cfg, kind, vocab_size=4))


def test_train_matches_reference_across_chunks():
    rng = np.random.default_rng(4)
    paragraphs = [
        TrainingParagraph(tuple(int(t) for t in rng.integers(0, 40, rng.integers(1, 30))))
        for _ in range(160)
    ]
    assert sum(len(p.tokens) for p in paragraphs) > 2 * embedding._CHUNK
    cfg = TrainConfig(dim=8, context_size=4, epochs=2, negatives=5, seed=21)
    for kind in KINDS:
        _assert_same_model(train(paragraphs, cfg, kind), train_reference(paragraphs, cfg, kind))
    # Many short paragraphs over a few hundred terms with one negative: DBOW
    # steps reach runs of _RUN targets that share no row, and take them whole.
    paragraphs = [
        TrainingParagraph(tuple(int(t) for t in rng.integers(0, 400, rng.integers(1, 4))))
        for _ in range(600)
    ]
    cfg = TrainConfig(dim=5, epochs=2, negatives=1, seed=4)
    tok, pid, par_start = embedding._flatten(paragraphs)
    runs = [np.diff(chunk[-1]) for chunk in embedding._chunks(tok, pid, par_start, 400, cfg, 0,
                                                               embedding._RUN)]
    assert max(r.max() for r in runs) == embedding._RUN
    _assert_same_model(train(paragraphs, cfg, "dbow", vocab_size=400),
                       train_reference(paragraphs, cfg, "dbow", vocab_size=400))


def _assert_two_kind_pass_matches_two_fits(paragraphs, cfg, vocab):
    got = list(fit([paragraphs], cfg, KINDS, vocab_size=vocab))
    assert [model.kind for model in got] == list(KINDS)
    for model, kind in zip(got, KINDS):
        want = train(paragraphs, cfg, kind, vocab_size=vocab)
        _assert_same_model(model, want)
        assert model.context_size == want.context_size
        # train runs the same loop, so also hold the two-kind pass to the reference
        _assert_same_model(model, train_reference(paragraphs, cfg, kind, vocab_size=vocab))


@settings(max_examples=150, deadline=None)
@given(_training_runs())
def test_fit_of_both_kinds_matches_two_fits(run):
    paragraphs, cfg, _, vocab = run
    _assert_two_kind_pass_matches_two_fits(paragraphs, cfg, vocab)


def test_fit_of_both_kinds_matches_two_fits_across_chunks():
    rng = np.random.default_rng(6)
    paragraphs = [
        TrainingParagraph(tuple(int(t) for t in rng.integers(0, 50, rng.integers(1, 30))))
        for _ in range(250)
    ]
    assert sum(len(p.tokens) for p in paragraphs) > 2 * embedding._CHUNK
    cfg = TrainConfig(dim=7, context_size=3, epochs=2, negatives=4, seed=13)
    _assert_two_kind_pass_matches_two_fits(paragraphs, cfg, None)


def test_chunk_size_is_bookkeeping_only():
    # Chunks batch the draws, rates and repeated-row links, never the
    # updates: every model is the same at any chunk size, from chunks of
    # one target to 1024, which leaves a short second chunk per epoch. Runs
    # of targets that share no row take one step each, so every model is
    # also the same at any run cap, from runs of one target up.
    rng = np.random.default_rng(12)
    paragraphs = [
        TrainingParagraph(tuple(int(t) for t in rng.integers(0, 30, rng.integers(1, 25))))
        for _ in range(100)
    ]
    assert 1024 < sum(len(p.tokens) for p in paragraphs) < 2 * 1024
    cfg = TrainConfig(dim=4, context_size=3, epochs=2, negatives=5, seed=8)
    runs = []
    for chunk, cap in itertools.product((1, 5, 256, 1024), (1, 2, embedding._RUN)):
        with mock.patch.object(embedding, "_CHUNK", chunk), mock.patch.object(embedding, "_RUN", cap):
            runs.append(list(fit([paragraphs], cfg, KINDS)) + [train(paragraphs, cfg, k) for k in KINDS])
    for run in runs[1:]:
        for got, want in zip(run, runs[0], strict=True):
            _assert_same_model(got, want)


def _greedy_runs(rows, cap):
    # The rule, row by row over each row's set of keys.
    bounds, seen = [0], set()
    for i, row in enumerate(rows):
        if seen & set(row) or i - bounds[-1] == cap:
            bounds.append(i)
            seen = set()
        seen |= set(row)
    return bounds + [len(rows)]


def _assert_links_give_add_at(keys, sink, bounds, data):
    # _links over rows of keys whose pads (keys < 0) are -1 - slot, and runs
    # of rows from bounds in which no two rows share a key.
    slots = keys.shape[1]
    read, write, links = embedding._links(keys, sink, np.array(bounds))
    # Pads and superseded slots (a later slot of the row holds the key) reach
    # only the sink; every other slot reads and writes its key.
    last = [[k >= 0 and k not in row[i + 1 :] for i, k in enumerate(row)] for row in keys.tolist()]
    assert (read == np.where(keys < 0, sink, keys)).all()
    assert (write == np.where(last, keys, sink)).all()
    assert read.dtype == write.dtype == np.intp
    # Links come in row order; the depth of a link is the number of earlier
    # slots of its row that hold its key.
    run, depth = links[0].tolist(), links[1].tolist()
    assert run == sorted(run)
    runs = len(bounds) - 1
    pairs, depths = embedding._pairs(links, runs), embedding._depths(links, runs)
    # A step per run: gather, add each slot's update, apply the links, write
    # back. That leaves every row as np.add.at over read does, whether the
    # links go one by one in order (the corpus loops) or a depth at a time,
    # each depth as one fancy assignment (lockstep).
    values = st.floats(-1e6, 1e6, allow_subnormal=False)
    table = data.draw(hnp.arrays(np.float64, (sink + 1, 2), elements=values))
    updates = data.draw(hnp.arrays(np.float64, (*keys.shape, 2), elements=values))
    want = table.copy()
    np.add.at(want, read, updates)
    one_by_one, by_depth = table.copy(), table.copy()
    for r, (a, b) in enumerate(zip(bounds, bounds[1:])):
        flat, upd = read[a:b].ravel(), updates[a:b].reshape(-1, 2)
        rows = keys[a:b].tolist()
        for src, dst in pairs[r]:  # slots of one row, counted over the run
            assert src < dst and src // slots == dst // slots and flat[src] == flat[dst]
            row, q = rows[dst // slots], dst % slots
            assert depth[run.index(r) + pairs[r].index((src, dst))] == row[:q].count(row[q])
        # the same links, a depth at a time
        assert sorted((s, t) for src, dst in depths[r] for s, t in zip(src.tolist(), dst.tolist())) \
            == sorted(pairs[r])
        # one fancy assignment per depth the run's links reach
        assert len(depths[r]) == len({d for rr, d in zip(run, depth) if rr == r})
        seen = set()
        for src, dst in depths[r]:
            # one depth's destinations are distinct and none is a source, and
            # every source is a first slot or the destination of a lower depth
            assert len(set(dst.tolist())) == len(dst)
            assert not set(src.tolist()) & set(dst.tolist())
            assert all(flat[s] not in flat[s // slots * slots : s] or s in seen
                       for s in src.tolist())
            seen |= set(dst.tolist())
        step = (one_by_one[read[a:b]] + updates[a:b]).reshape(-1, 2)
        for src, dst in pairs[r]:
            step[dst] = step[src] + upd[dst]
        one_by_one[write[a:b].ravel()] = step
        step = (by_depth[read[a:b]] + updates[a:b]).reshape(-1, 2)
        for src, dst in depths[r]:
            step[dst] = step[src] + upd[dst]
        by_depth[write[a:b].ravel()] = step
        # each row writes each of its keys once, and its other slots the sink
        written = write[a:b][write[a:b] != sink]
        assert len(written) == len(np.unique(written)) == len(set(keys[a:b][keys[a:b] >= 0]))
    assert (one_by_one[:sink] == want[:sink]).all()
    assert (by_depth[:sink] == want[:sink]).all()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 5), st.integers(1, 5), st.data())
def test_runs_cut_where_a_row_repeats_a_key_of_its_run(alphabet, slots, cap, data):
    rows = data.draw(st.lists(st.lists(st.integers(0, alphabet - 1), min_size=slots,
                                       max_size=slots), min_size=1, max_size=30))
    keys = np.array(rows, dtype=np.int64)
    bounds = embedding._runs(keys, cap).tolist()
    assert bounds == _greedy_runs(rows, cap)
    # the runs cover the rows in order, each at most cap long
    assert bounds[0] == 0 and bounds[-1] == len(rows)
    assert all(0 < b - a <= cap for a, b in zip(bounds, bounds[1:]))
    for a, b in zip(bounds, bounds[1:]):
        # no two rows of a run share a key, however often one row repeats it
        assert sum(len(set(row)) for row in rows[a:b]) == len(set().union(*rows[a:b]))
        # each cut is forced: the next row shares a key with the run, or it is full
        if b < len(rows):
            assert set(rows[b]) & set().union(*rows[a:b]) or b - a == cap
    # Some slots are pads, each with its own negative key, as a short DM
    # context's are; the runs stay cut by the whole rows.
    pads = data.draw(hnp.arrays(bool, keys.shape))
    _assert_links_give_add_at(np.where(pads, -1 - np.arange(slots), keys), alphabet, bounds, data)
    # a row that repeats its own keys cuts nothing
    assert embedding._runs(np.array([[0, 0, 0], [1, 1, 2], [3, 4, 3]]), 16).tolist() == [0, 3]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 7), st.lists(st.integers(1, 12), min_size=1, max_size=6),
       st.data())
def test_links_of_lockstep_steps_give_add_at(alphabet, slots, widths, data):
    # A lockstep step is a run of one row per live fit, as wide as the fits,
    # and each fit's keys are its own range of shared rows, so rows never
    # share a key; a row may still repeat its keys down a chain of any depth.
    # Unsigned keys narrower than the sink's type, as lockstep passes them.
    bounds = np.cumsum([0, *widths]).tolist()
    fits = max(widths)
    local = data.draw(hnp.arrays(np.uint8, (bounds[-1], slots), elements=st.integers(0, alphabet - 1)))
    fit_of_row = np.concatenate([np.arange(w) for w in widths])
    keys = (local + alphabet * fit_of_row[:, None]).astype(np.uint16)
    _assert_links_give_add_at(keys, alphabet * fits, bounds, data)
    # DM contexts hold pads too, from -slots up
    pads = data.draw(hnp.arrays(bool, keys.shape))
    keys = np.where(pads, -1 - np.arange(slots), keys.astype(np.int64))
    _assert_links_give_add_at(keys, alphabet * fits, bounds, data)


def test_train_matches_reference_where_slots_chain_through_one_row():
    # Over one term every slot hits row 0. Over two, the 6 out slots of each
    # target put three or more on one row, and the run of ones gives full
    # contexts of four slots on row 1. So steps chain a row through three or
    # more slots, in the out-rows and in the DM context alike.
    cfg = TrainConfig(dim=3, context_size=4, epochs=3, negatives=5, learning_rate=0.5, seed=3)
    two_terms = [TrainingParagraph((1,) * 9), TrainingParagraph((0, 1, 1, 0, 1, 1, 1, 0))]
    for paragraphs, vocab in (([TrainingParagraph((0,) * 9)], 1), (two_terms, 2)):
        joint = list(fit([paragraphs], cfg, KINDS, vocab_size=vocab))
        for model, kind in zip(joint, KINDS, strict=True):
            want = train_reference(paragraphs, cfg, kind, vocab_size=vocab)
            _assert_same_model(train(paragraphs, cfg, kind, vocab_size=vocab), want)
            _assert_same_model(model, want)


def test_fit_of_both_kinds_yields_dm_before_a_dbow_divergence():
    # DM stays finite here and DBOW diverges: the DM model comes out first,
    # then train's own error for DBOW.
    cfg = TrainConfig(dim=4, epochs=2, negatives=2, context_size=4, learning_rate=1e23, seed=3)
    with np.errstate(all="ignore"):
        models = fit([_paras()], cfg, KINDS, vocab_size=5)
        _assert_same_model(next(models), train(_paras(), cfg, "dm", vocab_size=5))
        with pytest.raises(ArithmeticError) as want:
            train(_paras(), cfg, "dbow", vocab_size=5)
        with pytest.raises(ArithmeticError) as got:
            next(models)
    assert str(got.value) == str(want.value)


def test_train_refuses_a_joint_pass_of_another_kind():
    cfg = TrainConfig(dim=4, epochs=1, negatives=2, seed=2)
    trained = fit([_paras()], cfg, KINDS, vocab_size=5)
    with pytest.raises(ValueError, match="yields a dm model next, not dbow"):
        train(_paras(), cfg, "dbow", vocab_size=5, trained=trained)
    # the refused model is consumed; the pass goes on with DBOW
    _assert_same_model(train(_paras(), cfg, "dbow", vocab_size=5, trained=trained),
                       train(_paras(), cfg, "dbow", vocab_size=5))


def test_train_refuses_an_exhausted_joint_pass():
    cfg = TrainConfig(dim=4, epochs=1, negatives=2, seed=2)
    trained = fit([_paras()], cfg, KINDS, vocab_size=5)
    for kind in KINDS:
        train(_paras(), cfg, kind, vocab_size=5, trained=trained)
    with pytest.raises(ValueError, match="exhausted; it holds no dbow model"):
        train(_paras(), cfg, "dbow", vocab_size=5, trained=trained)


def test_train_refuses_a_joint_pass_over_other_paragraphs():
    cfg = TrainConfig(dim=4, epochs=1, negatives=2, seed=2)
    trained = fit([_paras()], cfg, KINDS, vocab_size=5)
    with pytest.raises(ValueError, match="3 paragraphs over 5 terms, not 2 over 5"):
        train(_paras()[:2], cfg, "dm", vocab_size=5, trained=trained)
    # without vocab_size, the paragraph count is still checked
    with pytest.raises(ValueError, match="3 paragraphs over 5 terms, not 2 over 5"):
        train(_paras()[:2], cfg, "dbow", trained=trained)


def test_train_refuses_a_joint_pass_over_another_vocabulary():
    cfg = TrainConfig(dim=4, epochs=1, negatives=2, seed=2)
    trained = fit([_paras()], cfg, KINDS, vocab_size=5)
    with pytest.raises(ValueError, match="3 paragraphs over 5 terms, not 3 over 6"):
        train(_paras(), cfg, "dm", vocab_size=6, trained=trained)


def test_train_takes_the_vocabulary_size_of_a_handed_over_pass():
    # A corpus vocabulary may hold reference-only terms past the paragraphs'
    # largest id + 1; without vocab_size, train takes the pass's size.
    cfg = TrainConfig(dim=4, epochs=1, negatives=2, seed=2)
    trained = fit([_paras()], cfg, KINDS, vocab_size=7)
    for kind in KINDS:
        model = train(_paras(), cfg, kind, trained=trained)
        assert model.vocab_size == 7
        _assert_same_model(model, train(_paras(), cfg, kind, vocab_size=7))


_SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                  1.0, -1.0, 709.8, -709.8, 745.0, -745.0, 1e308, -1e308,
                  math.inf, -math.inf, math.nan, -math.nan]


def _stale_sigmoid_ops(shape):
    # The operands the training steps pass, their scratch array left full of
    # NaNs as a previous step might leave it.
    ops = embedding._sigmoid_ops(shape)
    ops[0].fill(np.nan)
    return ops


def _assert_sigmoid_bits(x):
    # As the training steps call it, with same-shape constant operands over
    # a stale scratch array, and as the oracles call it, with no operands.
    want = sigmoid_reference(x.copy()).view(np.uint64)
    got = embedding._sigmoid(x.copy(), _stale_sigmoid_ops(x.shape))
    assert np.array_equal(got.view(np.uint64), want)
    assert np.array_equal(embedding._sigmoid(x.copy()).view(np.uint64), want)


def test_sigmoid_matches_reference_bits_at_the_edges():
    _assert_sigmoid_bits(np.array(_SIGMOID_EDGES))
    # a 2-D array, written over in place, its operands used twice
    x = np.array(_SIGMOID_EDGES).reshape(2, 9)
    want = sigmoid_reference(x.copy())
    ops = _stale_sigmoid_ops(x.shape)
    for _ in range(2):
        y = x.copy()
        got = embedding._sigmoid(y, ops)
        assert got is y
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=8)))
def test_sigmoid_matches_reference_bits(x):
    _assert_sigmoid_bits(x)


def test_train_calls_share_no_state():
    # A step's buffers belong to its call: a two-kind pass and fits of
    # another shape in between leave a second call's model unchanged.
    cfg = TrainConfig(dim=5, epochs=2, negatives=3, context_size=2, seed=8)
    other = TrainConfig(dim=7, epochs=1, negatives=6, context_size=3, seed=9)
    for kind in KINDS:
        first = train(_paras(), cfg, kind, vocab_size=5)
        list(fit([_paras()], other, KINDS, vocab_size=6))
        train(_paras(), other, kind, vocab_size=6)
        _assert_same_model(train(_paras(), cfg, kind, vocab_size=5), first)
    # Two lockstep passes advanced in turn, one group per wave: each wave
    # makes its step buffers while the other call's waves are still open.
    runs = [
        (cfg, 5, [_paras(), _paras()[:1], [TrainingParagraph((2, 2, 4, 2))]]),
        (other, 6, [[TrainingParagraph((5, 1, 5, 5, 0))], _paras()[:2], _paras()]),
    ]
    with mock.patch.object(embedding, "_WAVE_VALUES", 1):
        for kind in KINDS:
            calls = [fit(groups, c, (kind,), vocab_size=v) for c, v, groups in runs]
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
        [TrainingParagraph(tuple(toks)) for toks in paragraphs]
        for paragraphs in draw(
            st.lists(st.lists(tokens, min_size=1, max_size=4), min_size=1, max_size=8)
        )
    ]
    if draw(st.booleans()):
        single = [TrainingParagraph((draw(st.integers(0, vocab - 1)),))]
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
    kinds = draw(st.sampled_from([("dm",), ("dbow",), KINDS]))
    return groups, cfg, kinds, size, wave_values


def _assert_lockstep_matches_separate_fits(groups, cfg, kinds, size):
    # kind-major, then group order
    got = list(fit(groups, cfg, kinds, vocab_size=size))
    want = [(kind, group) for kind in kinds for group in groups]
    assert [model.kind for model in got] == [kind for kind, _ in want]
    for model, (kind, group) in zip(got, want):
        _assert_same_model(model, train(group, cfg, kind, vocab_size=size))


@settings(max_examples=150, deadline=None)
@given(_lockstep_runs())
def test_fit_of_several_groups_matches_separate_fits(run):
    *run, wave_values = run
    with mock.patch.object(embedding, "_WAVE_VALUES", wave_values):
        _assert_lockstep_matches_separate_fits(*run)


def test_waves_cover_the_groups_in_order():
    groups = [[TrainingParagraph(tuple(range(n)))] for n in (5, 1, 3, 3, 8, 2, 2)]
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
    # The real bound still splits 4x the benchmark's per-doc documents (60 of
    # about 141 distinct terms each, dim 50), which fit in one wave.
    docs = [[TrainingParagraph(tuple(range(i, i + 141)))] for i in range(60)]
    assert len(embedding._waves(docs, 50)) == 1
    assert len(embedding._waves(docs * 4, 50)) >= 2


def test_fit_of_several_groups_matches_separate_fits_across_chunks():
    rng = np.random.default_rng(8)
    groups = [
        [
            TrainingParagraph(tuple(int(t) for t in rng.integers(0, 60, rng.integers(1, 30))))
            for _ in range(count)
        ]
        for count in (300, 90, 12, 1)
    ]
    # One term: every out slot and every full context hits one row, so each
    # step chains a row through all negatives + 1 and context_size slots.
    groups.append([TrainingParagraph((7,) * n) for n in (12, 5, 1, 30)])
    cfg = TrainConfig(dim=8, context_size=4, epochs=2, negatives=5, seed=21)
    steps = [cfg.epochs * sum(len(p.tokens) for p in g) for g in groups]
    # the first chunk gives each of the fits this many steps
    assert max(steps) > embedding._LOCKSTEP_TARGETS // len(groups)
    _assert_lockstep_matches_separate_fits(groups, cfg, KINDS, 70)


def test_fit_of_several_groups_matches_separate_fits_finishing_mid_chunk():
    # Small chunks and groups of very different lengths: fits finish inside
    # chunks, in different chunks, and the shared negative draw of each
    # chunk then serves fewer fits. Segments of negatives that no chunk
    # length divides end inside chunks, and fits finish inside segments.
    lengths = (1, 4, 9, 17, 23, 40)  # targets per group, in paragraphs of up to 5
    groups = []
    for i, n in enumerate(lengths):
        tokens = [(3 * i + j * j) % 11 for j in range(n)]
        groups.append([TrainingParagraph(tuple(tokens[a : a + 5])) for a in range(0, n, 5)])
    cfg = TrainConfig(dim=3, context_size=2, epochs=3, negatives=4, seed=17)
    targets = 16
    totals = sorted((cfg.epochs * n for n in lengths), reverse=True)
    step, finished = 0, []  # the lockstep schedule of _train_wave, chunk by chunk
    while step < totals[0]:
        active = sum(t > step for t in totals)
        m = min(max(1, targets // active), totals[0] - step)
        finished.append([t for t in totals if step < t < step + m])
        step += m
    assert sum(1 for inside in finished if inside) >= 3
    for segment in (embedding._SEGMENT, 1, 5, 7, 13):
        with mock.patch.object(embedding, "_LOCKSTEP_TARGETS", targets), \
             mock.patch.object(embedding, "_SEGMENT", segment):
            _assert_lockstep_matches_separate_fits(groups, cfg, KINDS, 11)


def test_lockstep_holds_no_step_buffer_while_it_yields():
    # A wave's step buffers, its plan of targets and its segment's draw and
    # negatives are dropped before its first model is yielded; while the
    # caller holds that model, the wave keeps only what the later models are
    # expanded from.
    cfg = TrainConfig(dim=4, epochs=2, context_size=2, seed=3)
    for kind in KINDS:
        models = fit([_paras(), _paras()[:1]], cfg, (kind,), vocab_size=5)
        next(models)
        frame = models.gi_yieldfrom.gi_frame
        assert frame.f_code is embedding._lockstep.__code__
        buffers = {"row_buf", "h_buf", "out_buf", "upd_buf", "g_buf", "sig", "grad_buf",
                   "ctx_buf", "out_rows", "upd", "ctx_rows", "plan_targets", "plan_negs",
                   "seg_negs", "negatives", "uniforms", "rng_neg"}
        assert not buffers & set(frame.f_locals)
        assert len(list(models)) == 1


def test_lockstep_memory_does_not_grow_with_negatives_times_steps():
    # A wave holds its (steps, fits) targets plan, but draws and maps its
    # negatives one segment of steps at a time. So at 4x the epochs the
    # tracemalloc peak of a one-wave fit grows by the plan's growth alone,
    # plus 32 KiB of slack; a (steps, fits, negatives) plan with its float64
    # draw and argsort grows by some 0.7 MiB here. Small chunks keep the
    # chunk-sized arrays, whose peak varies with the draws, below the slack.
    rng = np.random.default_rng(4)
    groups = [
        [TrainingParagraph(tuple(rng.integers(0, 60, 10).tolist())) for _ in range(6 + i % 10)]
        for i in range(20)
    ]
    longest = max(sum(len(p.tokens) for p in g) for g in groups)
    epochs = 2
    assert epochs * longest >= embedding._SEGMENT  # full segments at both lengths
    peaks = []
    with mock.patch.object(embedding, "_WAVE_VALUES", 2**40), \
         mock.patch.object(embedding, "_LOCKSTEP_TARGETS", 200):
        for e in (epochs, 4 * epochs):
            cfg = TrainConfig(dim=4, epochs=e, negatives=20, context_size=2, seed=6)
            tracemalloc.start()
            try:
                for model in fit(groups, cfg, ("dbow",), vocab_size=60):
                    del model
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    total = sum(len(p.tokens) for g in groups for p in g)
    plan_growth = 3 * epochs * longest * len(groups) * np.min_scalar_type(total).itemsize
    assert peaks[1] - peaks[0] <= plan_growth + 32 * 1024, (peaks, plan_growth)


def test_a_lockstep_chunk_keeps_its_temporaries_small():
    # Chunks of the per-doc benchmark's shape: 60 fits of 280 targets, 34
    # steps of 60 targets with 6 out-rows each (2,040 rows). The tracemalloc
    # peak of each step taken, over the wave's arrays and _sgd's buffers and
    # the one segment of negatives aside, is a chunk's arrays plus, where the
    # step starts a chunk, what making it takes. The bound counts copies of
    # the chunk's out-rows as intp, the type of the rows a step reads and
    # writes: those two, the packed keys and their sorted keys, and small
    # arrays, about 4.8 copies in all. Chunks whose argsort, sort, diff and
    # copies of int64 out-rows were alive together took 6.9, and the heap
    # was trimmed and regrown on every chunk.
    rng = np.random.default_rng(5)
    groups = [[TrainingParagraph(tuple(rng.integers(0, 140, 14).tolist())) for _ in range(20)]
              for _ in range(60)]
    cfg = TrainConfig(dim=2, epochs=2, negatives=5, seed=11)
    sgd, draw = embedding._sgd, embedding._negatives
    peaks, negatives = [], []

    def drawn(*args):
        negatives.append(draw(*args))
        return negatives[-1]

    def watched(steps, *args):
        def pulls():
            base = tracemalloc.get_traced_memory()[0]
            while True:
                tracemalloc.reset_peak()
                step = next(steps, None)
                if step is None:
                    return
                peaks.append(tracemalloc.get_traced_memory()[1] - base - negatives[0].nbytes)
                yield step
                del step
        sgd(pulls(), *args)

    with mock.patch.object(embedding, "_sgd", watched), \
         mock.patch.object(embedding, "_negatives", drawn), \
         mock.patch.object(embedding, "_SEGMENT", 10**6):
        tracemalloc.start()
        try:
            for model in fit(groups, cfg, ("dbow",), vocab_size=140 * 60):
                del model
        finally:
            tracemalloc.stop()
    assert len(negatives) == 1 and len(peaks) == 560
    rows = embedding._LOCKSTEP_TARGETS // 60 * 60
    out_rows = rows * (cfg.negatives + 1) * np.dtype(np.intp).itemsize
    assert max(peaks) < 6 * out_rows, (max(peaks), out_rows)


def test_fit_validates_every_group_and_its_kinds():
    cfg = TrainConfig(dim=4, epochs=1)
    with pytest.raises(ValueError, match="term id 4"):
        list(fit([_paras()[:1], _paras()], cfg, ("dbow",), vocab_size=3))
    negative = [TrainingParagraph((0, 1, -1, 2))]
    with pytest.raises(ValueError, match="paragraph 0 has negative term id -1"):
        list(fit([_paras()[:1], negative], cfg, ("dbow",), vocab_size=4))
    # kinds are distinct kinds in KINDS order: DM, the only kind with a
    # context, must come first in a pass over one group
    for kinds in (("skipgram",), (), ("dbow", "dm"), ("dm", "dm")):
        with pytest.raises(ValueError, match="kinds must be distinct kinds"):
            list(fit([_paras()], cfg, kinds))
    assert list(fit([], cfg, ("dm",))) == []


def test_diverged_training_is_refused():
    # The ArithmeticError reports a divergence; the overflows on the way there
    # print no numpy RuntimeWarning, and the caller's error state is kept.
    cfg = TrainConfig(dim=4, epochs=3, negatives=2, learning_rate=1e200, seed=1)
    runs = [lambda: list(fit([_paras()], cfg, KINDS, vocab_size=5))]
    for kind in KINDS:
        runs.append(lambda kind=kind: train(_paras(), cfg, kind, vocab_size=5))
        runs.append(lambda kind=kind: list(
            fit([_paras(), _paras()[:1]], cfg, (kind,), vocab_size=5)))
    before = np.geterr()
    for run in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ArithmeticError, match="diverged"):
                run()
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert np.geterr() == before


def test_degenerate_single_term_vocab_runs():
    par = TrainingParagraph((0, 0, 0))
    cfg = TrainConfig(dim=4, epochs=2, negatives=1, seed=1)
    model = train([par], cfg, "dbow")
    assert model.vocab_size == 1
    assert np.isfinite(model.para_matrix).all()
    assert np.isfinite(model.word_out).all()


def test_dm_context_predictor():
    rng = np.random.default_rng(0)
    model = EmbeddingModel(
        kind="dm",
        para_matrix=rng.normal(size=(2, 4)),
        word_out=np.zeros((5, 4)),
        word_in=rng.normal(size=(5, 4)),
        context_size=2,
    )
    par = TrainingParagraph((2, 0, 4))
    # no context at position 0: predictor is the bare paragraph row
    assert np.array_equal(dm_context(model, par, 1, 0), model.para_matrix[1])
    # two context words at position 2
    want = (model.para_matrix[1] + model.word_in[2] + model.word_in[0]) / 3.0
    assert np.array_equal(dm_context(model, par, 1, 2), want)
    with pytest.raises(IndexError):
        dm_context(model, par, 1, 3)


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


def test_joint_models_save_as_single_kind_models_do(tmp_path):
    # A two-kind pass's paragraph matrices are strided views of its
    # paragraph-major rows; each is written as train's own model is.
    cfg = TrainConfig(dim=5, epochs=2, negatives=3, context_size=2, seed=4)
    for model in fit([_paras()], cfg, KINDS, vocab_size=5):
        assert not model.para_matrix.flags.c_contiguous
        save_model(model, tmp_path / "joint.cvem")
        save_model(train(_paras(), cfg, model.kind, vocab_size=5), tmp_path / "one.cvem")
        assert (tmp_path / "joint.cvem").read_bytes() == (tmp_path / "one.cvem").read_bytes()


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


_DM = EmbeddingModel(kind="dm", para_matrix=np.ones((2, 3)), word_out=np.ones((2, 3)),
                     word_in=np.ones((2, 3)), context_size=1)
_DBOW = dataclasses.replace(_DM, kind="dbow", word_in=None, context_size=0)


@pytest.mark.parametrize("model, field", [
    (dataclasses.replace(_DBOW, para_matrix=np.ones((0, 3))), "para_matrix"),
    (dataclasses.replace(_DBOW, para_matrix=np.ones((2, 0)), word_out=np.ones((2, 0))),
     "para_matrix"),
    (dataclasses.replace(_DBOW, para_matrix=np.ones(3)), "para_matrix"),
    (dataclasses.replace(_DBOW, word_out=np.ones((2, 4))), "word_out"),
    (dataclasses.replace(_DBOW, word_out=np.ones((0, 3))), "word_out"),
    (dataclasses.replace(_DBOW, word_out=np.ones((2, 3, 1))), "word_out"),
    (dataclasses.replace(_DM, word_in=np.ones((3, 3))), "word_in"),
    (dataclasses.replace(_DM, word_in=None), "word_in"),
    (dataclasses.replace(_DBOW, word_in=np.ones((2, 3))), "word_in"),
    (dataclasses.replace(_DBOW, kind="DBOW"), "kind"),
    (dataclasses.replace(_DM, context_size=-1), "context_size"),
    (dataclasses.replace(_DM, context_size=2**32), "context_size"),
    (dataclasses.replace(_DM, context_size=1.0), "context_size"),
])
def test_save_refuses_a_model_it_cannot_write_back(tmp_path, model, field):
    path = tmp_path / "m.cvem"
    save_model(_DM, path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=f"^{field} "):
        save_model(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.cvem"]  # no .part file


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
    docs = [*tiny_docs, make_doc("d2", [["sun"]]), make_doc("d3", [["a", "b"], ["b"]] * 3)]
    vocab = build_vocabulary(docs)
    paragraphs = build_training_paragraphs(docs, vocab)
    index = paragraph_index(docs)
    # one whole-document paragraph plus one per sentence, for each document
    assert len(paragraphs) == sum(1 + len(d.sentences) for d in docs)
    assert index == {"d0": 0, "d1": 4, "d2": 8, "d3": 10}
    for doc in docs:
        first = index[doc.id]
        assert list(paragraphs[first].tokens) == vocab.ids(doc.all_tokens())
        for i, sent in enumerate(doc.sentences):
            assert list(paragraphs[first + 1 + i].tokens) == vocab.ids(sent)
