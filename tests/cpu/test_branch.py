"""Unit tests for the branch predictors and BTB."""

import random

import pytest

from repro.cpu.branch import (
    BimodalPredictor,
    BranchTargetBuffer,
    GsharePredictor,
    MetaPredictor,
)


def mispredict_rate(predictor):
    """The fraction of the predictor's predictions that were wrong."""
    return predictor.mispredictions / predictor.predictions


class TestBimodal:
    def test_learns_bias(self):
        predictor = BimodalPredictor(1024)
        pc = 0x4000
        for _ in range(4):
            predictor.update(pc, True)
        assert predictor.predict(pc)
        for _ in range(4):
            predictor.update(pc, False)
        assert not predictor.predict(pc)

    def test_hysteresis(self):
        predictor = BimodalPredictor(1024)
        pc = 0x4000
        for _ in range(10):
            predictor.update(pc, True)
        predictor.update(pc, False)  # one blip must not flip the counter
        assert predictor.predict(pc)


class TestGshare:
    def test_learns_alternating_pattern(self):
        """Bimodal can never beat 50% on strict alternation; gshare's
        history disambiguates it perfectly after warm-up."""
        gshare = GsharePredictor(4096)
        bimodal = BimodalPredictor(4096)
        pc = 0x5000
        gshare_correct = bimodal_correct = 0
        taken = True
        for i in range(400):
            if i >= 100:  # skip warm-up
                gshare_correct += gshare.predict(pc) == taken
                bimodal_correct += bimodal.predict(pc) == taken
            gshare.update(pc, taken)
            bimodal.update(pc, taken)
            taken = not taken
        assert gshare_correct == 300
        assert bimodal_correct < 200


class TestMeta:
    def test_tracks_better_component(self):
        predictor = MetaPredictor(4096)
        pc = 0x6000
        taken = True
        for _ in range(600):
            predictor.update(pc, taken)
            taken = not taken
        # Alternation: the meta chooser must have migrated to gshare.
        assert mispredict_rate(predictor) < 0.25

    def test_biased_branches_easy(self):
        predictor = MetaPredictor(4096)
        rng = random.Random(3)
        for _ in range(2000):
            pc = 0x7000 + (rng.randrange(8) << 2)
            predictor.update(pc, True)
        assert mispredict_rate(predictor) < 0.05

    def test_random_branches_hard(self):
        predictor = MetaPredictor(4096)
        rng = random.Random(4)
        mispredicts = 0
        for i in range(4000):
            pc = 0x8000 + (rng.randrange(64) << 2)
            taken = rng.random() < 0.5
            if not predictor.update(pc, taken):
                mispredicts += 1
        # Unpredictable branches: no predictor can do much better
        # than chance.
        assert mispredicts > 1200


class TestBTB:
    def test_hit_after_insert(self):
        btb = BranchTargetBuffer(64, 4)
        assert not btb.lookup_update(0x4000)
        assert btb.lookup_update(0x4000)

    def test_capacity_eviction(self):
        btb = BranchTargetBuffer(16, 4)  # 4 sets x 4 ways
        # 5 branches mapping to the same set: the first gets evicted.
        pcs = [0x1000 + (i * 4 * 4 * 4) for i in range(5)]
        for pc in pcs:
            btb.lookup_update(pc)
        assert not btb.lookup_update(pcs[0])

    def test_lru_within_set(self):
        btb = BranchTargetBuffer(16, 4)
        pcs = [0x1000 + (i * 4 * 4 * 4) for i in range(5)]
        for pc in pcs[:4]:
            btb.lookup_update(pc)
        btb.lookup_update(pcs[0])  # refresh the oldest
        btb.lookup_update(pcs[4])  # evicts pcs[1], not pcs[0]
        assert btb.lookup_update(pcs[0])
        assert not btb.lookup_update(pcs[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(10, 4)  # not a multiple
        with pytest.raises(ValueError):
            BranchTargetBuffer(24, 4)  # 6 sets: not a power of two
