from reduction_lab.battery import seed_battery

CHECKS_PER_SEED = 16


def test_seed_battery_structure():
    lines = seed_battery(0)
    assert len(lines) == CHECKS_PER_SEED
    names = [l.name for l in lines]
    assert names[0] == "s000.oracle_agreement"
    assert names[-1] == "s000.strict_convexity_probe"
    assert lines[-1].advisory and lines[-1].passed
    assert all(l.passed for l in lines)


def test_seed_battery_deterministic():
    a = [l.format() for l in seed_battery(3)]
    b = [l.format() for l in seed_battery(3)]
    assert a == b
