"""Bit pins: float.hex of the saddle and tail outputs at six fixed points.

Each pin is an exact output of the package, recorded before the two tails
shared one solver. A refactor that claims to keep every output bit must
keep every pin; a change that moves bits on purpose regenerates them and
says so in CHANGES.md. Orders of phi are 0..4 at the saddle tilt; the
estimate pins are (log_value, error_indicator), the perron one of its
upper estimate.

The large-y pins reach y = 1e5 and 1e6, where buckets span several row
chunks of the profile reduction (at y = 1e3 all 168 primes fit in one).
They were recorded on one BLAS thread, at the commit before the profile
kept its tables per y. The chunked reduction gives them on one and on two
BLAS threads; the whole-bucket product it replaced moved the last bit of
phi_0 in the lower (4, 1e5) pin on two.

The constants pin is the stdout of ``eulertails constants --J 4``, recorded
on one BLAS thread at the commit before that command lost its disk cache.

The pins were recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on
x86-64 Linux. Another numpy build or libm may round differently in the last
bit; on such a host, regenerate the pins from the commit before a change
and compare against those.
"""

import pytest
from test_acceptance import Budget

from eulertails.cli import main
from eulertails.profile import phi_profile
from eulertails.saddle import solve_saddle
from eulertails.tails import tail_expansion, tail_perron, tail_saddle

PINS = {
    ('upper', 2.0, 50.0): {
        'kappa': '0x1.3992cd4e85ebap+3',
        'residual': '-0x1.b194800000000p-34',
        'iterations': 5,
        'phi': ('0x1.ecfdbf13fa98fp+3', '0x1.45367fdb194dbp+1', '0x1.6e0b798415822p-4', '-0x1.b6b27018e743bp-7', '0x1.bc938b3dff841p-9'),
        'refined': ('-0x1.706cce2bf8404p+3', '0x1.bb7776c659c7ap-6'),
        'asymptotic': ('-0x1.6f83266cada07p+3', '0x1.152aaa3bf81ccp-3'),
        'perron': ('-0x1.6adf3f2278a0fp+3', '0x1.0c700bfd6b313p-20'),
        'expansion': ('-0x1.a3143106267edp+3', '0x1.0dbdf2b8c1771p+3'),
    },
    ('upper', 1.5, 30.0): {
        'kappa': '0x1.66ed740fd5139p+2',
        'residual': '-0x1.6000000000000p-48',
        'iterations': 6,
        'phi': ('0x1.6e78879abc35bp+2', '0x1.f721ef2cf8229p+0', '0x1.968e445fe8ff8p-3', '-0x1.a23ca874d3794p-5', '0x1.425a0b8e7a826p-6'),
        'refined': ('-0x1.cb3e59731717ap+2', '0x1.122eade2d3745p-5'),
        'asymptotic': ('-0x1.c85fc64ea4870p+2', '0x1.56ba595b88516p-3'),
        'perron': ('-0x1.c074532cc8c13p+2', '0x1.0c713a554ea76p-20'),
        'expansion': ('-0x1.60da413ab5dedp+3', '0x1.5b09726b28ecdp+3'),
    },
    ('upper', 3.0, 1000.0): {
        'kappa': '0x1.b3f48b1588e94p+4',
        'residual': '0x1.2278000000000p-37',
        'iterations': 4,
        'phi': ('0x1.133af47b2967fp+6', '0x1.ad030f8e526b6p+1', '0x1.7e747fee4d084p-6', '-0x1.2516c1c3b401bp-10', '0x1.95d505e4c00c4p-14'),
        'refined': ('-0x1.8e0e03c4cbd43p+4', '0x1.e96d428f8073ap-7'),
        'asymptotic': ('-0x1.8dc60066ee31ap+4', '0x1.31e44999b0483p-4'),
        'perron': ('-0x1.8b3a7fcfe25cbp+4', '0x1.0c6f7a39e4afbp-20'),
        'expansion': ('-0x1.677c49053b977p+4', '0x1.d81d7cf5492a1p+2'),
    },
    ('lower', 2.0, 50.0): {
        'kappa': '0x1.ada0fb105cd37p+2',
        'residual': '0x1.0000000000000p-50',
        'iterations': 4,
        'phi': ('0x1.c4d9587c5351ap+2', '-0x1.8b9a6cc1fa914p+0', '0x1.72d335702c002p-4', '0x1.c06daf247b748p-7', '0x1.ca745c49eb790p-9'),
        'refined': ('-0x1.40c402cf31cd7p+2', '0x1.bb7776c659c7ap-6'),
        'asymptotic': ('-0x1.3adf622eced75p+2', '0x1.152aaa3bf81ccp-3'),
        'perron': ('-0x1.38c081cac98f8p+2', '0x1.0cc5c663bef15p-20'),
    },
    ('lower', 1.5, 30.0): {
        'kappa': '0x1.449b7e20ddceep+1',
        'residual': '-0x1.0000000000000p-53',
        'iterations': 4,
        'phi': ('0x1.a02951e3264b0p+0', '-0x1.f09eb870a76a0p-1', '0x1.9e37545075c8cp-3', '0x1.ae0f2b069e527p-5', '0x1.4c36100b3b617p-6'),
        'refined': ('-0x1.137c7be8316eap+1', '0x1.122eade2d3745p-5'),
        'asymptotic': ('-0x1.e274d1946bf57p+0', '0x1.56ba595b88516p-3'),
        'perron': ('-0x1.076aff8673ab0p+1', '0x1.0c7d9db4c5f3ap-20'),
    },
    ('lower', 3.0, 1000.0): {
        'kappa': '0x1.83d9fe1e4071bp+4',
        'residual': '-0x1.0000000000000p-51',
        'iterations': 5,
        'phi': ('0x1.5956c989e6927p+5', '-0x1.2d99c613fbaa1p+1', '0x1.7e9300b6d61dap-6', '0x1.2540cef952be7p-10', '0x1.9628e60cb1c2fp-14'),
        'refined': ('-0x1.03480cec3ee38p+4', '0x1.e96d428f8073ap-7'),
        'asymptotic': ('-0x1.02da89b55a059p+4', '0x1.31e44999b0483p-4'),
        'perron': ('-0x1.00c0c2d8b0d9ep+4', '0x1.0c6f7a756cd33p-20'),
    },
}
LARGE_Y_PHI = {
    -566.0: ('0x1.d9c193149f3bdp+10', '-0x1.df0b16e5513fdp+1', '0x1.33bf539f3809cp-11', '0x1.415f4449a869dp-20', '0x1.3b50e7789f1d7p-28'),
    569.0: ('0x1.337d5bc5f415dp+11', '0x1.2f3a4712146a8p+2', '0x1.33bf52411a46ap-11', '-0x1.415f457ddb3f1p-20', '0x1.3b50e774f3c9bp-28'),
}
LARGE_Y_SADDLE = {
    ('upper', 6.0, 1e6): {
        'kappa': '0x1.1c83fcc3aaebdp+9',
        'residual': '-0x1.5380000000000p-41',
        'phi': ('0x1.338214da81046p+11', '0x1.2f3a93c30fae0p+2', '0x1.33ba50e76fe91p-11', '-0x1.41557327737fdp-20', '0x1.3b42c89092a0dp-28'),
    },
    ('lower', 4.0, 1e5): {
        'kappa': '0x1.23d231b678554p+6',
        'residual': '0x1.0000000000000p-51',
        'phi': ('0x1.5e0b6c407adddp+7', '-0x1.773f4e58cf183p+1', '0x1.a6fb1c2a68685p-8', '0x1.b52716f56f2b3p-14', '0x1.a0e5644715fd8p-19'),
    },
}
SADDLE_STDOUT = (
    '{\n'
    '  "rows": [\n'
    '    {\n'
    '      "t": 1.5,\n'
    '      "y": 50.0,\n'
    '      "tail": "lower",\n'
    '      "kappa": 2.486800594730756,\n'
    '      "log_kappa": 0.9109969825680578,\n'
    '      "target": -0.9699609410779039,\n'
    '      "residual": -1.1102230246251565e-16,\n'
    '      "iterations": 4,\n'
    '      "bracket_lo": 0.5602111337922581,\n'
    '      "bracket_hi": 17.926756281352258,\n'
    '      "phi0": 1.5927076771810686,\n'
    '      "phi1": -0.969960941077904,\n'
    '      "phi2": 0.2082029391649812\n'
    '    }\n'
    '  ]\n'
    '}\n'
)

# stdout of `eulertails constants --J 4`; its rows include those of --J 3
CONSTANTS_STDOUT = (
    '{\n'
    '  "rows": [\n'
    '    {\n'
    '      "name": "gamma0",\n'
    '      "j": null,\n'
    '      "n": null,\n'
    '      "value": -0.19843826402036446,\n'
    '      "abs_error_estimate": 5.999200722162641e-15\n'
    '    },\n'
    '    {\n'
    '      "name": "b_1_0",\n'
    '      "j": 1,\n'
    '      "n": 0,\n'
    '      "value": -2.396876528041967,\n'
    '      "abs_error_estimate": 5.973799150320701e-14\n'
    '    },\n'
    '    {\n'
    '      "name": "b_1_1",\n'
    '      "j": 1,\n'
    '      "n": 1,\n'
    '      "value": -0.3968765280407289,\n'
    '      "abs_error_estimate": 1.1998401444325282e-14\n'
    '    },\n'
    '    {\n'
    '      "name": "b_1_2",\n'
    '      "j": 1,\n'
    '      "n": 2,\n'
    '      "value": 2.000000000000017,\n'
    '      "abs_error_estimate": 1.5773159728050816e-14\n'
    '    },\n'
    '    {\n'
    '      "name": "b_2_0",\n'
    '      "j": 2,\n'
    '      "n": 0,\n'
    '      "value": -4.815453402128887,\n'
    '      "abs_error_estimate": 8.480617008561035e-11\n'
    '    },\n'
    '    {\n'
    '      "name": "b_2_1",\n'
    '      "j": 2,\n'
    '      "n": 1,\n'
    '      "value": -2.418576874089804,\n'
    '      "abs_error_estimate": 2.773417043297377e-13\n'
    '    },\n'
    '    {\n'
    '      "name": "b_2_2",\n'
    '      "j": 2,\n'
    '      "n": 2,\n'
    '      "value": 0.3968765280411709,\n'
    '      "abs_error_estimate": 3.808864252301646e-14\n'
    '    },\n'
    '    {\n'
    '      "name": "b_3_0",\n'
    '      "j": 3,\n'
    '      "n": 0,\n'
    '      "value": -10.585386585726692,\n'
    '      "abs_error_estimate": 2.9241728149170523e-11\n'
    '    },\n'
    '    {\n'
    '      "name": "b_3_1",\n'
    '      "j": 3,\n'
    '      "n": 1,\n'
    '      "value": -0.9544797814697512,\n'
    '      "abs_error_estimate": 2.7905907805941532e-11\n'
    '    },\n'
    '    {\n'
    '      "name": "b_3_2",\n'
    '      "j": 3,\n'
    '      "n": 2,\n'
    '      "value": 4.837153748175581,\n'
    '      "abs_error_estimate": 1.3953039523701388e-10\n'
    '    },\n'
    '    {\n'
    '      "name": "b_4_0",\n'
    '      "j": 4,\n'
    '      "n": 0,\n'
    '      "value": -46.66454228270828,\n'
    '      "abs_error_estimate": 1.3173986337985843e-12\n'
    '    },\n'
    '    {\n'
    '      "name": "b_4_1",\n'
    '      "j": 4,\n'
    '      "n": 1,\n'
    '      "value": -14.908382525527728,\n'
    '      "abs_error_estimate": 1.1480505352461479e-13\n'
    '    },\n'
    '    {\n'
    '      "name": "b_4_2",\n'
    '      "j": 4,\n'
    '      "n": 2,\n'
    '      "value": 2.8634393444094783,\n'
    '      "abs_error_estimate": 4.019806626980426e-14\n'
    '    },\n'
    '    {\n'
    '      "name": "a_1",\n'
    '      "j": 1,\n'
    '      "n": null,\n'
    '      "value": 2.0000000000012417,\n'
    '      "abs_error_estimate": 6.595524044110788e-14\n'
    '    },\n'
    '    {\n'
    '      "name": "a_2",\n'
    '      "j": 2,\n'
    '      "n": null,\n'
    '      "value": 2.3968765280403224,\n'
    '      "abs_error_estimate": 8.342505264297666e-11\n'
    '    },\n'
    '    {\n'
    '      "name": "a_3",\n'
    '      "j": 3,\n'
    '      "n": null,\n'
    '      "value": 9.630906804256957,\n'
    '      "abs_error_estimate": 2.937673126896494e-11\n'
    '    },\n'
    '    {\n'
    '      "name": "a_4",\n'
    '      "j": 4,\n'
    '      "n": null,\n'
    '      "value": 31.756159757180573,\n'
    '      "abs_error_estimate": 1.0012071163853397e-12\n'
    '    },\n'
    '    {\n'
    '      "name": "gamma_1",\n'
    '      "j": 1,\n'
    '      "n": null,\n'
    '      "value": 1.189599564731194,\n'
    '      "abs_error_estimate": null\n'
    '    },\n'
    '    {\n'
    '      "name": "gamma_2",\n'
    '      "j": 2,\n'
    '      "n": null,\n'
    '      "value": 0.9461466966729256,\n'
    '      "abs_error_estimate": null\n'
    '    },\n'
    '    {\n'
    '      "name": "gamma_3",\n'
    '      "j": 3,\n'
    '      "n": null,\n'
    '      "value": 7.2164271598101,\n'
    '      "abs_error_estimate": null\n'
    '    },\n'
    '    {\n'
    '      "name": "a_star_1",\n'
    '      "j": 1,\n'
    '      "n": null,\n'
    '      "value": 1.0,\n'
    '      "abs_error_estimate": 0.0\n'
    '    },\n'
    '    {\n'
    '      "name": "a_star_2",\n'
    '      "j": 2,\n'
    '      "n": null,\n'
    '      "value": 4.597326265794815,\n'
    '      "abs_error_estimate": 1.0000000000012417\n'
    '    }\n'
    '  ]\n'
    '}\n'
)


def _hexes(est):
    return (est.log_value.hex(), est.error_indicator.hex())


@pytest.fixture(scope="module")
def outputs():
    out = {}
    with Budget(5.0):
        for tail, t, y in PINS:
            sol = solve_saddle(t, y, tail=tail)
            row = {
                "kappa": sol.kappa.hex(),
                "residual": sol.residual.hex(),
                "iterations": sol.iterations,
                "phi": tuple(v.hex() for v in sol.profile_at_kappa.values),
            }
            for mode in ("refined", "asymptotic"):
                row[mode] = _hexes(tail_saddle(t, y, mode, sol, tail=tail))
            row["perron"] = _hexes(tail_perron(t, y, solution=sol, tail=tail)[1])
            if tail == "upper":
                row["expansion"] = _hexes(tail_expansion(t, y, J=2, solution=sol))
            out[tail, t, y] = row
    return out


@pytest.mark.parametrize("key", sorted(PINS))
def test_saddle_solution_bits(outputs, key):
    got, want = outputs[key], PINS[key]
    for field in ("kappa", "residual", "iterations", "phi"):
        assert got[field] == want[field], field


@pytest.mark.parametrize("key", sorted(PINS))
def test_tail_row_bits(outputs, key):
    got, want = outputs[key], PINS[key]
    assert set(got) == set(want)
    for route in ("refined", "asymptotic", "perron", "expansion"):
        assert got.get(route) == want.get(route), route


def test_large_y_bits():
    with Budget(10.0):
        for sigma, want in LARGE_Y_PHI.items():
            got = phi_profile(sigma, 1e6, max_order=4).values
            assert tuple(v.hex() for v in got) == want, sigma
        for (tail, t, y), want in LARGE_Y_SADDLE.items():
            sol = solve_saddle(t, y, tail=tail)
            assert sol.kappa.hex() == want["kappa"], (tail, t, y)
            assert sol.residual.hex() == want["residual"], (tail, t, y)
            phi = tuple(v.hex() for v in sol.profile_at_kappa.values)
            assert phi == want["phi"], (tail, t, y)


def test_lower_saddle_stdout_bytes(capsys):
    with Budget(5.0):
        assert main(["saddle", "--t", "1.5", "--y", "50", "--tail", "lower"]) == 0
    assert capsys.readouterr().out == SADDLE_STDOUT


def test_constants_stdout_bytes(capsys):
    with Budget(10.0):
        assert main(["constants", "--J", "4"]) == 0
    assert capsys.readouterr().out == CONSTANTS_STDOUT
