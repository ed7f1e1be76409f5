import numpy as np
import pytest

from nmvg.encoders import (
    TextEncoderParams,
    TokenSequence,
    image_encoder,
    load_vocab,
    radar_encoder,
    text_encoder,
    tokenize,
)
from nmvg.model import DEFAULT_VOCAB, Model, RunConfig, generate_archive
from nmvg.tensor import ShapeError
from oracles import bn_ref, conv2d_ref

VOCAB = list(DEFAULT_VOCAB)


@pytest.fixture(scope="module")
def small_model():
    cfg = RunConfig(input_size=64, seed=7)
    return cfg, Model.from_archive(cfg, generate_archive(cfg))


class TestConfig:
    """The encoder widths and token budget, checked by RunConfig."""

    def test_channels_must_not_decrease(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            RunConfig(stage_channels=(16, 8, 32, 64))

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.stage_channels == (16, 32, 64, 96)
        assert cfg.text_len == 50

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("stage_channels", (16, 32, 64), "exactly four"),
            ("stage_channels", (0, 32, 64, 96), "must be positive"),
            ("text_vocab", 0, "text_vocab"),
            ("text_len", 0, "text_len"),
            ("embed_dim", 0, "embed_dim"),
        ],
    )
    def test_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**{field: value})


class TestTokenize:
    def test_lowercase_and_padding(self):
        toks = tokenize("The FAST vessel", VOCAB, 10)
        ids = list(toks.ids)
        assert ids[:3] == [VOCAB.index("the"), VOCAB.index("fast"), VOCAB.index("vessel")]
        assert ids[3:] == [0] * 7
        assert list(toks.padding_mask[:3]) == [False, False, False]
        assert all(toks.padding_mask[3:])

    def test_truncates_to_length(self):
        toks = tokenize("the " * 60, VOCAB, 50)
        assert len(toks) == 50
        assert not toks.padding_mask.any()

    def test_unknown_word_rejected(self):
        with pytest.raises(ValueError, match="zeppelin"):
            tokenize("the zeppelin", VOCAB, 10)

    def test_empty_prompt_all_padding(self):
        toks = tokenize("   ", VOCAB, 5)
        assert list(toks.ids) == [0] * 5
        assert toks.padding_mask.all()

    def test_load_vocab_roundtrip(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("\n".join(VOCAB) + "\n", encoding="utf-8")
        assert load_vocab(path) == VOCAB

    def test_token_sequence_validation(self):
        with pytest.raises(ValueError):
            TokenSequence(ids=np.array([1, -2]), padding_mask=np.array([False, False]))
        with pytest.raises(ShapeError):
            TokenSequence(ids=np.array([1]), padding_mask=np.array([False, True]))


class TestImageEncoder:
    def test_stage_shapes_at_64(self, small_model):
        cfg, model = small_model
        x = np.zeros((1, 3, 64, 64), dtype=np.float32)
        stages = image_encoder(x, model.image_p)
        shapes = [s.shape for s in stages]
        assert shapes == [(1, 16, 16, 16), (1, 32, 8, 8), (1, 64, 4, 4), (1, 96, 2, 2)]

    def test_batch_passthrough(self, small_model):
        _, model = small_model
        x = np.random.default_rng(0).random((3, 3, 64, 64), dtype=np.float32)
        stages = image_encoder(x, model.image_p)
        assert all(s.shape[0] == 3 for s in stages)

    def test_indivisible_extent_rejected(self, small_model):
        """The extent is checked once, by Model.forward; the encoder is a plain layer."""
        cfg, model = small_model
        x = np.zeros((1, 3, 64, 64), dtype=np.float32)
        tokens = tokenize("the vessel", VOCAB, cfg.text_len)
        with pytest.raises(ShapeError, match=r"image input extent \(60, 64\)"):
            model.forward(np.zeros((1, 3, 60, 64), dtype=np.float32), x, tokens)

    def test_wrong_channel_count_rejected(self, small_model):
        _, model = small_model
        with pytest.raises(ShapeError):
            image_encoder(np.zeros((1, 1, 64, 64), dtype=np.float32), model.image_p)


class TestRadarEncoder:
    def test_stage_shapes_match_image_side(self, small_model):
        cfg, model = small_model
        x = np.random.default_rng(1).standard_normal((1, 3, 64, 64)).astype(np.float32)
        shapes = [s.shape for s in radar_encoder(x, model.radar_p)]
        assert shapes == [(1, 16, 16, 16), (1, 32, 8, 8), (1, 64, 4, 4), (1, 96, 2, 2)]

    def test_first_stage_matches_manual_composition(self, small_model):
        """Residual stage layout: two DW+BN+ReLU blocks, identity shortcut,
        then the separable stride-2 projection."""
        _, model = small_model
        p = model.radar_p
        x = np.random.default_rng(2).standard_normal((1, 3, 64, 64)).astype(np.float32)

        def relu(a):
            return np.maximum(a, 0.0)

        def bn(a, q):
            return bn_ref(a, q.gamma, q.beta, q.running_mean, q.running_var, q.epsilon)

        h = relu(bn(conv2d_ref(x, p.stem_dw.kernel, None, 2, 1, 3), p.stem_bn))
        st = p.stages[0]
        b1 = relu(bn(conv2d_ref(h, st.block1_dw.kernel, None, 1, 1, 3), st.block1_bn))
        b2 = relu(bn(conv2d_ref(b1, st.block2_dw.kernel, None, 1, 1, 3), st.block2_bn))
        merged = b2 + h
        down = conv2d_ref(merged, st.down.dw.kernel, None, 2, 1, 3)
        down = conv2d_ref(down, st.down.pw.kernel, None, 1, 0, 1)
        want = relu(bn(down, st.down.bn))

        got = radar_encoder(x, p)[0]
        np.testing.assert_allclose(got, want, atol=1e-4)


class TestTextEncoder:
    def test_lookup_shape_and_padding_row(self):
        rng = np.random.default_rng(3)
        table = rng.standard_normal((26, 8)).astype(np.float32)
        p = TextEncoderParams(embedding=table)
        toks = tokenize("the vessel", VOCAB, 6)
        out = text_encoder(toks, p)
        assert out.shape == (8, 6)
        np.testing.assert_array_equal(out[:, 0], table[VOCAB.index("the")])
        np.testing.assert_array_equal(out[:, 2], table[0])

    def test_out_of_range_id_rejected(self, small_model):
        """Ids are checked once, by Model.forward, against the bound table."""
        cfg, model = small_model
        ids = np.zeros(cfg.text_len, dtype=np.int64)
        ids[1] = cfg.text_vocab + 9
        toks = TokenSequence(ids=ids, padding_mask=ids == 0)
        x = np.zeros((1, 3, 64, 64), dtype=np.float32)
        with pytest.raises(ValueError, match=f"token id {cfg.text_vocab + 9}"):
            model.forward(x, x, toks)
