import normgroups

# names only the tests or the benchmark read; they stay in their modules
UNEXPORTED = ("conjugacy_orbit_reps", "STATUS_INCONCLUSIVE", "TransSemigroup", "in_r_class")


def test_public_names_resolve():
    for name in normgroups.__all__:
        assert getattr(normgroups, name, None) is not None, name
    for name in UNEXPORTED:
        assert name not in normgroups.__all__
        assert not hasattr(normgroups, name), name
