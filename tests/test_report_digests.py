"""Golden report digests: speed work must leave every report byte-identical.

Each entry is the exit code and the SHA-256 of the stdout report of one
CLI call.  ``GOLDEN`` was recorded before the polynomial-kernel fast
paths and the heap pair queue landed; ``POINT_GOLDEN`` (point queries on
corpus and bench models, many points with zero coordinates) before the
closed-orbit scan solved each weight-column set once; ``KIRWAN_GOLDEN``
(the Kirwan loop on the bench models) before chart atlases and models
were built directly, except ``rank2.kb``, recorded when unstable ideals
were first attached above rank one (before that the loop exited 5 on
it); ``FRAME_GOLDEN`` (the subcommands no other digest covers, and their
error exits, as exit code and the SHA-256 of stdout and of stderr)
before one command frame loaded, budgeted and reported every
subcommand; ``MATRIX_GOLDEN`` (the Kirwan loop on the GL(2) matrix
model) before the center scan visited weight-column sets in place of
coordinate supports.  A change that alters any report fails here, and the digest to
compare against is the one below, not a fresh recording.
"""

import contextlib
import hashlib
import io

import pytest

from bench_models import BENCH_MODELS, MATRIX_MODELS, write_bench_models
from equiblow import cli

GOLDEN = {
    "corpus": (0, "fbc1fedd75291b4e00c4ad695fd371a3641ee71178a235f9540701bb753e3f1d"),
    "blowup conic.kb": (0, "7a0d15faaa9acf966f152720286bbf0589b8f269911111f2f7d4aabff59ea2e6"),
    "blowup e1.kb": (0, "2812259f5033d08267b63dbfa3c310ed5b986e52e400dee46c9c658d4e69b1d3"),
    "blowup e1aux.kb": (0, "bcac7c85ca5829e36b30bbb45c4f8fd5106496190d56d8887c2e23ad4fc9bced"),
    "blowup e2.kb": (0, "9c5dbb4b4b7de7d0a6efb402c3d9352dc4869165365407bebb5e31784e1bebad"),
    "blowup e2aux.kb": (0, "b9825c4f293a9a55594fa68c47764916f8234675317263949bdba02435e31985"),
    "blowup family.kb": (0, "10ea0dd02d76d2449c8a71ebda7dc213c59faecaf2ad880cdbf820fced328a4f"),
    "blowup fat.kb": (0, "46e5828ec81b5dcbd73d8d24d324de9d50ca43180c52f1d6a9c0edf7e11d4938"),
    "blowup square.kb": (0, "7e33530404b396f34b4c535e1651a0919cf5612f2636263bb916a1fcff5d44d6"),
    "blowup square_pair.kb": (0, "117894372ba610ef1b443991993b345047da3019c20caecced5a95b743082361"),
    "blowup trivial.kb": (0, "31ac279cc033b4602e207bec9ce655bc1020c21dc0b89f698b9952a44bd0c560"),
    "blowup e1.kb --full": (0, "bb3bad5d835fe2419c917d8867b81010f0a94e3d7a1737aa41e291d35b6ecc30"),
    "blowup e2.kb --full": (0, "2321897edb4470fb70e6d174ffc0224bd6ef23a2300a4c07825556b4255d9dd7"),
    "blowup conic.kb --full": (0, "dae3a2ce82303c5e134b62d0822e42c1a8caebf1a5c1f8414dae43dbd1c219b2"),
    "blowup square.kb --full": (0, "cc7739da0883e32b5340f0cfe56dffb32cda8b39d28ea39dd01a994a008ffd1a"),
    "blowup square_pair.kb --full": (0, "87441d48a4c1ab55c8f0e527ab9dd1463d41fdc262b07cc789176242d6accadc"),
    "blowup family.kb --full": (0, "b500836372f14f6a1c36f4cc038b0d61b229569b451da6ae37a1c7bf62aba015"),
}

POINT_GOLDEN = {
    "crit heavy.kb --point=0,0,3,0,0,1/2": (0, "96b276830411542b8271fea21c6442739f1597deb815f957bb5c74c14a32ff4f"),
    "crit quiver3.kb --point=0,0,0,0,0,-1": (0, "dc4cd157f7505841875fa63465db6b8935504bc762c891a45aebb1516f4ee08c"),
    "crit conifold.kb --point=0,0,0,-3,0": (0, "0083a40a6ad05a665c17276826183e36dda9fc6bff1e810a4e2a76424eb04d68"),
    "crit e2.kb --point=0,0,-1": (0, "1e014860bb7cb60d015d2efb8bb336406ea84e9e8bf55a6d2760e267447b5a57"),
    "crit square.kb --point=-1,0": (0, "558168030ae0206454bb28ce8ef44ce9da14b183c6306827d6dfb8b12fe84c4f"),
    "semistable heavy.kb --chart chart_x2 --point=0,1/3,1/2,2,3,0": (0, "32af9127e752f96ce5bcfd93ab8dd251f3a7d458547e944ea828fd94bed462ee"),
    "semistable quiver3.kb --chart chart_a --point=0,-3/2,0,0,0,-3": (0, "456b490725990eb907f9d2c25b39ce84763b63d2c0fec0be19b32935fc896847"),
    "semistable conifold.kb --chart chart_x1 --point=-2,1/3,0,2,0": (0, "02e89e9f1d48bd6ad9c1687ca46261287d41feae722c1a60d968d01d9a413d03"),
    "semistable e2aux.kb --chart chart_x --point=0,1/3,0,1/2": (0, "0f893d827d17d816d4a18aaa0dd14e813b6c8772e78d6b7268daa24d12fce2d1"),
    "semistable family.kb --chart chart_y --point=1,0,-1/3,0": (0, "d24f4f94f061017a89deef24e1437abeb9b94c1ea8c4349404b3c43bfdb8b9e0"),
    "obstruction heavy.kb --point=0,0,-3/2,0,2,0 --direction=0,-1,-1,0,0,-1 --ext-order 2": (0, "99731d47d6365bad5c187384113261679346dd1a26f6be130f1570de4b961308"),
    "obstruction quiver3.kb --point=0,3/2,-1,0,0,0 --direction=0,1,-1,0,0,0 --ext-order 3": (0, "6ba45a781ff486dae3922e83c7fa9b23eeb16675d821beebdde9e5718dfafd30"),
    "obstruction conifold.kb --point=0,-1,0,0,0 --direction=-1/3,2/3,-3/2,0,0 --ext-order 2": (0, "192e20fcf556dbf239a8acd173a41edd14c1c3886fe5d67c24419ef0d7141453"),
    "obstruction square.kb --point=-1,0 --direction=3/2,0 --ext-order 3": (0, "a4d2e9e20f866784b700ec9d7913ca1efcaed3c1100eab5bd9330c91505bc186"),
    "obstruction e2.kb --point=-1/3,0,0 --direction=-1,0,0 --ext-order 3": (0, "a55666b1ffb93385abfcbe66aac1acfac76968ebfd118e5e3c999c5ed2327d85"),
}

KIRWAN_GOLDEN = {
    "blowup heavy.kb --full": (0, "2997b510111dc7e373d138d5131910a8a57ce4ea8ca9e5c62742dcae7f34205e"),
    "blowup quiver3.kb --full": (0, "335e4515259fcb074690fd00cd6d59d0cc4c79fc36ae823c85d2f58befd1db44"),
    "blowup conifold.kb --full": (0, "a785f6ded1b6bb50d0c28cbeb21fdac8725f419e28faf49d7640978050b010db"),
    "blowup rank2.kb --full": (0, "68a6bda79fbe13b28bbe7694e6ce70128ceb4015eb0bd430c737a13f84174f7b"),
}

MATRIX_GOLDEN = {
    "blowup c3m2.kb --full": (0, "c7fe027de03c665b4af445c61dea87c49d8c2f79a74f43250368e5718400fe1a"),
}

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

FRAME_GOLDEN = {
    "independence e1aux.kb --aux u": (0, "61f541578a082fd242b1f8423eb925f50a192f054625841101c8a24337c667d1", EMPTY),
    "independence e2aux.kb --aux u": (0, "6e887bd20e5bdf7ff59b54a9fbab6f14378aa7dced24b51f0880fa1885304880", EMPTY),
    "fiber-check family.kb --at 0": (0, "bdfbecf1af179839cec7f31a3f7e2ed7c19abb472f5e09eb817a5e841f79891a", EMPTY),
    "fiber-check family.kb --at 1": (0, "7242c63c22d694f6a2e61a49b19b6ff5bec771af1e1fb9011af5f971be32efdc", EMPTY),
    "fiber-check family.kb --at -2": (0, "a6ce37e8704c4a7656c14a5cb37a7697f488025b53c890571b5bae5dd37f963b", EMPTY),
    "omega-verify square_pair.kb": (0, "4baad25087267371b0830c797b49b4cb41f83e24fdbfa9b6334e79c33c18f955", EMPTY),
    "omega-verify square.kb": (2, EMPTY, "dc2e1ebcdc78d86a1caf540234479ad51ea7002462cb629e77aad5a4f98feedb"),
    "independence e1aux.kb --aux w": (2, EMPTY, "fff51313e17ca6ae7520aeeaebab931c3e8ccf2716401f8dedda14a2015da10f"),
    "blowup fat.kb --full": (3, EMPTY, "9a9a8fc98aae49eae4e299f0bbacff76140669281f2e96ebb8a7d9d2a9db1dc8"),
    "independence e2aux.kb --aux u --budget 1": (4, EMPTY, "12224acb9eb27daa0f5d0323c42e8a511507cb909ec3cf2611f12c5eb05d2e99"),
}


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    directory = write_bench_models(tmp_path_factory.mktemp("bench"))
    for name, text in MATRIX_MODELS.items():
        (directory / name).write_text(text)
    return directory


def _run(case: str, bench_dir=None) -> tuple[int, str]:
    code, out, _ = _run_with_stderr(case, bench_dir)
    return code, out


def _run_with_stderr(case: str, bench_dir=None) -> tuple[int, str, str]:
    argv = [
        str((bench_dir if w in BENCH_MODELS or w in MATRIX_MODELS else cli.CORPUS_DIR) / w)
        if w.endswith(".kb")
        else w
        for w in case.split()
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, _sha(out.getvalue()), _sha(err.getvalue())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_corpus_file_has_a_plain_blowup_digest():
    files = {p.name for p in cli.CORPUS_DIR.glob("*.kb")}
    plain = {c.split()[1] for c in GOLDEN if c.startswith("blowup") and "--full" not in c}
    assert plain == files


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_digest_is_unchanged(case):
    assert _run(case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(POINT_GOLDEN))
def test_point_query_digest_is_unchanged(case, bench_dir):
    assert _run(case, bench_dir) == POINT_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(KIRWAN_GOLDEN))
def test_kirwan_loop_digest_is_unchanged(case, bench_dir):
    assert _run(case, bench_dir) == KIRWAN_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(MATRIX_GOLDEN))
def test_matrix_model_digest_is_unchanged(case, bench_dir):
    assert _run(case, bench_dir) == MATRIX_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(FRAME_GOLDEN))
def test_frame_digest_is_unchanged(case):
    assert _run_with_stderr(case) == FRAME_GOLDEN[case]
