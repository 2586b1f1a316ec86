"""Tests for repro.utils.rng — deterministic hierarchical streams."""


from repro.utils.rng import SeedSequenceTree


class TestSeedSequenceTree:
    def test_same_name_same_stream(self):
        tree = SeedSequenceTree(5)
        assert tree.rng("x").random() == tree.rng("x").random()

    def test_different_names_differ(self):
        tree = SeedSequenceTree(5)
        assert tree.rng("x").random() != tree.rng("y").random()

    def test_name_isolation_from_other_requests(self):
        """Requesting extra streams must not perturb existing ones."""
        t1 = SeedSequenceTree(5)
        v1 = t1.rng("target").random()
        t2 = SeedSequenceTree(5)
        t2.rng("unrelated-a")
        t2.rng("unrelated-b")
        assert t2.rng("target").random() == v1

    def test_root_seed_changes_streams(self):
        assert SeedSequenceTree(1).rng("x").random() != SeedSequenceTree(2).rng("x").random()
