"""Every benchmark job's report, and the construction reports the
benchmark does not run, frozen byte for byte.

The inputs and argument lists of the 21 jobs in `perfbench/jobs.py`,
copied here at the identity relabelling of their permutation groups, run
through `cli.main --json --reproducible`; each report's sha256 must match
the table below. So do the reports of `CONSTRUCTION_JOBS`, constructions on
further inputs: the coprime family at n = 1, metabelian targets small
enough to be checked on their elements, module searches over noncyclic
factors and abelianization splits, one of them reducing a factor modulo
its largest normal p-subgroup; so do the reports of `COUNT_JOBS`,
counts into symmetric and alternating groups given by further generators
and into groups of degree 7 and 8 that are neither; and so do those of
`OPSUB_JOBS`, largest normal p-subgroups of further inputs. A refactor that means to keep every
result keeps these tables. A change that means to change a report updates
the table and says in CHANGES.md which reports changed and why.
"""

import hashlib
import json

from genbound import homcount
from genbound.cli import main

PERM_GROUPS = {
    "sym4": (4, [[1, 2, 3, 0], [1, 0, 2, 3]]),
    "sym6": (6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]),
    "sym7": (7, [[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]]),
    "alt5": (5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]),
    "agl-1-7": (7, [[1, 2, 3, 4, 5, 6, 0], [0, 3, 6, 2, 5, 1, 4]]),
    "sym4-wr-c2": (
        8,
        [[1, 2, 3, 0, 4, 5, 6, 7], [1, 0, 2, 3, 4, 5, 6, 7], [4, 5, 6, 7, 0, 1, 2, 3]],
    ),
    "agl-3-2": (
        8,
        [[1, 0, 3, 2, 5, 4, 7, 6], [0, 1, 3, 2, 4, 5, 7, 6], [0, 2, 4, 6, 1, 3, 5, 7]],
    ),
    "c3-perm": (3, [[1, 2, 0]]),
    "c13-perm": (13, [[(i + 1) % 13 for i in range(13)]]),
    # inputs of CONSTRUCTION_JOBS only
    "c2-perm": (2, [[1, 0]]),
    "sym3": (3, [[1, 2, 0], [1, 0, 2]]),
    "a4": (4, [[1, 2, 0, 3], [1, 0, 3, 2]]),
    # inputs of COUNT_JOBS only: Sym(8) by the 8-cycle and (0 1), Alt(6) by
    # (0 3)(1 5) and (0 4)(1 2 3 5), Alt(7) by (0 6)(2 4) and (0 1 3 2 5)
    "sym8": (8, [[1, 2, 3, 4, 5, 6, 7, 0], [1, 0, 2, 3, 4, 5, 6, 7]]),
    "sym9": (9, [[1, 2, 3, 4, 5, 6, 7, 8, 0], [1, 0, 2, 3, 4, 5, 6, 7, 8]]),
    "alt6": (6, [[3, 5, 2, 0, 4, 1], [4, 2, 3, 5, 0, 1]]),
    "alt7": (7, [[6, 1, 4, 3, 2, 5, 0], [1, 3, 5, 2, 4, 0, 6]]),
}

PRESENTATIONS = {
    "c2": (["a"], ["a^2"]),
    "c3": (["b"], ["b^3"]),
    "c13": (["a"], ["a^13"]),
    "tri-2-3-5": (["a", "b"], ["a^2", "b^3", "(a*b)^5"]),
    "tri-2-4-5": (["a", "b"], ["a^2", "b^4", "(a*b)^5"]),
    "tri-3-3-4": (["a", "b"], ["a^3", "b^3", "(a*b)^4"]),
    "tri-2-3-7": (["a", "b"], ["a^2", "b^3", "(a*b)^7"]),
    "tri-2-3-605": (["a", "b"], ["a^2", "b^3", "(a*b)^605"]),
    # inputs of CONSTRUCTION_JOBS only
    "c5": (["a"], ["a^5"]),
    "c7": (["a"], ["a^7"]),
    "c11": (["a"], ["a^11"]),
    "c31": (["a"], ["a^31"]),
    "sym3-pres": (["a", "b"], ["a^2", "b^3", "(a*b)^2"]),
}

# (job, argv): `@x` names an input and `=x` the report of an earlier job.
# The jobs run in this order.
JOBS = [
    ("hom-2-3-5-sym6", "homcount --factors @tri-2-3-5 --target @sym6"),
    ("hom-2-4-5-sym6", "homcount --factors @tri-2-4-5 --target @sym6"),
    ("hom-3-3-4-sym6", "homcount --factors @tri-3-3-4 --target @sym6"),
    ("hom-2-3-7-sym7", "homcount --factors @tri-2-3-7 --target @sym7"),
    ("hom-2-3-605-alt5", "homcount --factors @tri-2-3-605 --target @alt5"),
    ("bound-2-3-5-cubed-alt5",
     "bound --factors @tri-2-3-5 @tri-2-3-5 @tri-2-3-5 --target @alt5"),
    ("witness-sym4", "witness --factors @c2 @c3 --target @sym4"),
    ("witness-agl-1-7", "witness --factors @c2 @c3 --target @agl-1-7"),
    ("witness-agl-1-7-dedup",
     "witness --factors @c2 @c3 --target @agl-1-7 --dedup --width-cap 64"),
    ("dmin-sym4-wr-c2", "dmin @sym4-wr-c2"),
    ("opsub-sym4-wr-c2", "opsub @sym4-wr-c2 --prime 2"),
    ("dmin-agl-3-2", "dmin @agl-3-2"),
    ("opsub-agl-3-2", "opsub @agl-3-2 --prime 2"),
    ("thm1-c13-c13-f3", "construct-thm1 --factors @c13 @c13 --prime 3"),
    ("thm3-c3-c13", "decompose-thm3 --factors @c3-perm @c13-perm"),
    ("solsol-2-3-5-7", "construct-solsol --primes 2,3,5,7"),
    ("thm4-n2", "construct-thm4 --n 2"),
    ("verify-thm1", "verify --certificate =thm1-c13-c13-f3"),
    ("verify-thm3", "verify --certificate =thm3-c3-c13"),
    ("verify-solsol", "verify --certificate =solsol-2-3-5-7"),
    ("verify-thm4", "verify --certificate =thm4-n2"),
]

FROZEN = {
    "hom-2-3-5-sym6": "653c04ded71eb17819753abfd65832c893a3597be63dce4c007198c14f05ca1d",
    "hom-2-4-5-sym6": "0792de57386777fa32b23861e605dad7cc6ddfc672d1f9f613450a324bd675b4",
    "hom-3-3-4-sym6": "41f7dc782768d15673615390b083f56e13236a3c0d90aaf17999f9679d3d17e6",
    "hom-2-3-7-sym7": "a5c2fb431ef34c959a7d41922f6d860371c08b951404d55f0e46d4ba0731ebc1",
    "hom-2-3-605-alt5": "b0e763b623bda46397459d50bb1d3e0a7c00af4f6a7624c4f37ad4bb67492eea",
    "bound-2-3-5-cubed-alt5": "eb20fb4947bcf8175f9ad407b484ff997dc6a73c8e095b39c7c3685a02379f88",
    "witness-sym4": "b67db5a90be66d5077d019bdc73aef10d83c32cde6161ccd0789da3cd4959e29",
    "witness-agl-1-7": "f6f12af244e0fe4f3b296368b16e7e4f805fe55e818c56749ec695e1049add5d",
    "witness-agl-1-7-dedup": "a6335e2640e9b606cc8643600f7dc861d9dbf3d8eeafd443d1a0d1f4c211aeb2",
    "dmin-sym4-wr-c2": "aa7525e9ace9081f1620a005234a5bcd4908d9a3cb531b8647cd84eca5a8b44a",
    "opsub-sym4-wr-c2": "dae97dd2b1869c726795acec671e789c1b14298e7aa09e7a6bf73b55009756ef",
    "dmin-agl-3-2": "694806b57d14dec1b9e54ba35884ed809bd656cfedba47fb27eef0e6a6d3b1a1",
    "opsub-agl-3-2": "72adb3be2aa5e214283804ece9631dbfd8aa7549d036dacbe32a063a9d314404",
    "thm1-c13-c13-f3": "e4b8ca30fac86506513bbd782fa2494fa18c20e33a113cb67cba891547964ef7",
    "thm3-c3-c13": "f0aa5087ea931feb3f38195ac193763cbf5912f8667286fc45e4329762ff83ed",
    "solsol-2-3-5-7": "8f4ae16bc4bb0300be8c5e17a460c2d0c2ad584a1481e82dc7357ac0953181df",
    "thm4-n2": "24596b88c29918e4c37d27bdb524e7bde9667a905fa3ac2d7be19d80aa9910e3",
    "verify-thm1": "720ea0fbcf2e3a744f01a72bf6ae1d25ac2d0c53843f5b6a198c27c722d7fadf",
    "verify-thm3": "720ea0fbcf2e3a744f01a72bf6ae1d25ac2d0c53843f5b6a198c27c722d7fadf",
    "verify-solsol": "366c71ac5121b2a1d15010363139b1ff7867fd33256620368429a9e4be1325bd",
    "verify-thm4": "51068e4a2112cf81deca27e043be377e7c75a45c1c82a9b6e52cadd13189d891",
}


# Constructions the benchmark never runs, with the same conventions. The
# metabelian targets of two primes have at most 5,000 elements, so their
# derived subgroup is computed on the target group itself and checked abelian.
CONSTRUCTION_JOBS = [
    ("thm4-n1", "construct-thm4 --n 1"),
    ("solsol-2-3", "construct-solsol --primes 2,3"),
    ("solsol-3-5", "construct-solsol --primes 3,5"),
    ("solsol-2-5", "construct-solsol --primes 2,5"),
    ("solsol-2-7", "construct-solsol --primes 2,7"),
    ("solsol-3-7", "construct-solsol --primes 3,7"),
    ("solsol-5-7", "construct-solsol --primes 5,7"),
    ("solsol-eight-primes", "construct-solsol --primes 2,3,5,7,11,13,17,19"),
    ("thm1-c5-c7-f2", "construct-thm1 --factors @c5 @c7 --prime 2"),
    ("thm1-c11-c31-f2", "construct-thm1 --factors @c11 @c31 --prime 2"),
    ("thm1-s3-s3-f5", "construct-thm1 --factors @sym3-pres @sym3-pres --prime 5"),
    ("thm1-s3-c2-f5", "construct-thm1 --factors @sym3-pres @c2 --prime 5"),
    ("thm1-s3-c3-f2", "construct-thm1 --factors @sym3-pres @c3 --prime 2"),
    ("thm3-s3-s4", "decompose-thm3 --factors @sym3 @sym4"),
    ("thm3-s3-c2-c3", "decompose-thm3 --factors @sym3 @c2-perm @c3-perm"),
    # Alt(4) avoids p = 2 in its abelianization C3, so it is reduced modulo
    # its O_2, the Klein four-group, to C3
    ("thm3-c2-a4", "decompose-thm3 --factors @c2-perm @a4"),
]

CONSTRUCTION_FROZEN = {
    "thm4-n1": "3eee36fa97c5948f5cc273f49558392fe8c816ee3d11dbf983126daa3221f385",
    "solsol-2-3": "860221b783011ccea9ee90fd2d2b49716b67f5633b1b6424883f988437ea5268",
    "solsol-3-5": "4be501abc4cccd67c86a3bdff10c1e8019859783eca00a99da008aca57544623",
    "solsol-2-5": "b61f50c2b6319bffe401a1dfe57658f9c621dbb8a07966230a812cc66ad7f8d8",
    "solsol-2-7": "bd030cde02d10b322bc7be8b590290cba126feb5c460c86cf30eb7b5f11b4951",
    "solsol-3-7": "6583bbff832d292aa7028be17612f54b7f720daa4ee7995888d00fd640245f02",
    "solsol-5-7": "7753fb05fec6b21b23d91399e035e237536524c58a5d88ce7787e221b27bbaba",
    "solsol-eight-primes": "1f41e388eb85b281d9ef98cc7e54f978cfb8491b4465c0515e48957b2bec5d42",
    "thm1-c5-c7-f2": "df4044c22d26debfcef15012daf3c020d14ddcaca66c42058311d461649dafed",
    "thm1-c11-c31-f2": "d600367bde0d94d010d0c3b7322d5ea73e5a5e104c8e8301cf1dc08b0769eb3a",
    "thm1-s3-s3-f5": "e733f2496534b99d1c8d2959e9c544aefacfe9ae001fc123327dac8a3a3a545b",
    "thm1-s3-c2-f5": "1b9dcfe466fcae21d2b9189e1cd35c77f5a8d7e4a7772efd3937758b89f49d9c",
    "thm1-s3-c3-f2": "6db25a0a174eecdc997336ce8ff1fbab1617405cbed48d6a10c63611214aaf43",
    "thm3-s3-s4": "1488d427279f8fa5836dc70a4ca8cf2b1c37f53a34fa19f518687fdf141755d2",
    "thm3-s3-c2-c3": "a6b443c6bb2b92978fc024d87960023de185007d6f0d903d40b390ccd219d276",
    "thm3-c2-a4": "e8e5e9caf4c2bb9a686afbe1d78779a699e27204527de10bb96f3db99c60fd51",
}


# Counts into symmetric and alternating groups, which are never enumerated,
# and into two groups of degree 7 and 8 that are neither, with the same
# conventions.
COUNT_JOBS = [
    ("hom-2-3-7-sym8", "homcount --factors @tri-2-3-7 --target @sym8"),
    ("hom-2-3-5-alt6", "homcount --factors @tri-2-3-5 --target @alt6"),
    ("hom-2-3-5-alt7", "homcount --factors @tri-2-3-5 --target @alt7"),
    ("hom-2-3-7-agl-1-7", "homcount --factors @tri-2-3-7 --target @agl-1-7"),
    ("hom-2-3-7-sym4-wr-c2", "homcount --factors @tri-2-3-7 --target @sym4-wr-c2"),
    ("hom-c2-sym9", "homcount --factors @c2 --target @sym9"),
    ("bound-2-3-7-cubed-sym8",
     "bound --factors @tri-2-3-7 @tri-2-3-7 @tri-2-3-7 --target @sym8"),
]

COUNT_FROZEN = {
    "hom-2-3-7-sym8": "3894d9686fc8d94d8b8200bcdee01f42ea5ea4a076ec87c1c9517c1c05f9ae86",
    "hom-2-3-5-alt6": "391d4e1e222f0e330493a5581313ae43bd31070c298754cb97a975aeaefadc05",
    "hom-2-3-5-alt7": "16cfdca23e3ffde14affcbb5ff76107f4fc25263888b9d96f000c6f529ae60c3",
    "hom-2-3-7-agl-1-7": "8781b47bfe427b410a92e6b5d42f919b48f622e0a3808248ba3907ca89123ea9",
    "hom-2-3-7-sym4-wr-c2": "078311203fe87fd2240985a3b0ec2008b0ff3f98f27d62b2aaea0d438700cd8e",
    "hom-c2-sym9": "3ce7caefb6e4cf63aece87658423557b76f1a7ceca74d1a08112109ba44e68cc",
    "bound-2-3-7-cubed-sym8": "c77a6b112ca2df26be61eec10e383bb1669d2d04fbd822ea4b3e141668d3ecf5",
}


# Largest normal p-subgroups on further inputs, with the same conventions:
# the translations of AGL(1,7), V4 in Sym(4), the whole of C13 and the
# trivial O_5 of the simple Alt(5).
OPSUB_JOBS = [
    ("opsub-agl-1-7-p7", "opsub @agl-1-7 --prime 7"),
    ("opsub-sym4-p2", "opsub @sym4 --prime 2"),
    ("opsub-c13-perm-p13", "opsub @c13-perm --prime 13"),
    ("opsub-alt5-p5", "opsub @alt5 --prime 5"),
]

OPSUB_FROZEN = {
    "opsub-agl-1-7-p7": "ea9cb13170b966d45b22f4f46235357b1c1c7653d4a421581e77e779820a1c3f",
    "opsub-sym4-p2": "6170dd1e7fe0d404bd177e10ac889af27df35f23fe99bbad25d43b38271be1a7",
    "opsub-c13-perm-p13": "7db52bd9430bc6963ff40a2e5b467045a9e4be94e878f2fa88759cbab0de211c",
    "opsub-alt5-p5": "806ef7750910e6992d1c7e6ce9662ebbbc2643e4c0ff8d849706a5841e6b01e4",
}


def _inputs(directory) -> dict:
    """Each input document written to `directory`: name -> path."""
    docs = {
        name: {"type": "perm", "degree": degree, "generators": generators}
        for name, (degree, generators) in PERM_GROUPS.items()
    }
    for name, (generators, relators) in PRESENTATIONS.items():
        docs[name] = {"type": "presentation", "generators": generators, "relators": relators}
    paths = {}
    for name, doc in docs.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc) + "\n")
    return paths


def reports(directory, jobs=JOBS) -> dict:
    """Each job's report bytes, the jobs run in order in `directory`."""
    inputs = _inputs(directory)
    out = {}
    for name, argv in jobs:
        args = []
        for arg in argv.split():
            if arg.startswith("@"):
                arg = str(inputs[arg[1:]])
            elif arg.startswith("="):
                arg = str(directory / f"{arg[1:]}.report.json")
            args.append(arg)
        report = directory / f"{name}.report.json"
        assert main(args + ["--json", "--reproducible", "--output", str(report)]) == 0, name
        out[name] = report.read_bytes()
    return out


def test_every_benchmark_report_is_frozen(tmp_path):
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in reports(tmp_path).items()}
    assert digests == FROZEN


def test_every_construction_report_is_frozen(tmp_path):
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in reports(tmp_path, CONSTRUCTION_JOBS).items()
    }
    assert digests == CONSTRUCTION_FROZEN


def test_every_count_report_is_frozen(tmp_path):
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in reports(tmp_path, COUNT_JOBS).items()
    }
    assert digests == COUNT_FROZEN


def test_every_opsub_report_is_frozen(tmp_path):
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in reports(tmp_path, OPSUB_JOBS).items()
    }
    assert digests == OPSUB_FROZEN


def test_witness_reports_form_no_full_width_tuple(tmp_path, monkeypatch):
    # `witness` reads the order and d off the witness kernel, so the
    # full-width tuples that only `elements` forms are never built: the
    # frozen witness reports, and Alt(5)'s order-4,320 witness, hold with
    # that fill refused
    def refuse(self):
        raise AssertionError("full-width witness tuples formed")

    monkeypatch.setattr(homcount._WitnessGroup, "_generate", refuse)
    jobs = [job for job in JOBS if job[1].startswith("witness ")]
    jobs.append(("witness-alt5", "witness --factors @c2 @c3 --target @alt5"))
    out = reports(tmp_path, jobs)
    assert json.loads(out.pop("witness-alt5"))["witness_order"] == "4320"
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}
    assert digests == {name: FROZEN[name] for name in digests} and len(digests) == 3
