import os

import pytest

from cubicsd import cli, construct, cyclicring, dataset, gf2


def _worker_count():
    return min(8, len(os.sched_getaffinity(0)))


@pytest.fixture(scope="session")
def full_verification():
    """Rebuild and check all 264 table codes once per test session.

    Returns the verify-tables report together with the code objects,
    each carrying its canonical form (registered once, in the pool
    worker that built it), keyed for reuse by the acceptance tests.
    Dedup tests do not depend on this fixture having run: they classify
    survivors by H_i-orbit and build no code.
    """
    report, codes = cli.verify_tables(
        threads=_worker_count(), return_codes=True
    )
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
