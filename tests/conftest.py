import os
import signal

import pytest

from cubicsd import cli, construct, cyclicring, dataset, equiv, gf2


# Seconds one test may run before it fails: well above the slowest,
# test_complete_x1_pass (~22 s), so that only a hang reaches it, and
# below the faulthandler_timeout of 300 s in pyproject.toml, whose
# watchdog thread dumps every stack: with both at 300 s, the dump raced
# the failing test and the run died with a segmentation fault.
TEST_TIME_LIMIT = 240


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test that runs longer than TEST_TIME_LIMIT seconds, naming
    it, instead of hanging the suite.  The SIGALRM timer belongs to this
    process: forked pool workers do not inherit it, and no test sets a
    SIGALRM handler of its own."""

    def expired(signum, frame):
        pytest.fail(
            "%s ran longer than %d s" % (request.node.nodeid, TEST_TIME_LIMIT),
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _worker_count():
    return min(8, len(os.sched_getaffinity(0)))


@pytest.fixture(scope="session")
def full_verification():
    """Rebuild and check all 264 table codes once per test session.

    Returns the verify-tables report together with the code objects,
    each carrying its canonical form (registered once, in the pool
    process that built it), keyed for reuse by the acceptance tests:
    the codes that ``verify_tables`` partitions into classes.  Dedup
    tests do not depend on this fixture having run: they classify
    survivors by H_i-orbit and build no code.
    """
    codes = []
    partition_classes = equiv.partition_classes

    def kept(built):
        codes.extend(built)
        return partition_classes(built)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equiv, "partition_classes", kept)
        report = cli.verify_tables(threads=_worker_count())
    return {
        "report": report,
        "codes": codes,
        "entries": dataset.table_entries(),
    }


@pytest.fixture
def build_code_alt():
    """``construct.build_code`` with the other GF(4) embedding, omega ->
    x^2 e(x) (``cyclicring.gf4_embed_alt``): a different generator matrix
    of an equivalent code."""

    def build(tau, xi_index):
        layout = construct.STANDARD_3_16_0
        rows = [
            construct.pi_inverse(r, layout)
            for r in construct.permuted_base_rows(tau)
        ]
        for grow in dataset.x_generator(xi_index):
            vec = tuple(cyclicring.gf4_embed_alt(v) for v in grow)
            rows.extend(construct.phi_inverse_rows(vec, layout))
        return gf2.BinaryCode.from_rows(rows, layout.n)

    return build
