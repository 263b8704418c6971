"""Golden digests of seeded sessions and closed-form reports.

Each case hashes, with SHA-256, everything a seeded ``run_session``
returns: the stats JSON, both keys and all eight round-log columns with
their dtypes.  The unitary cases also hash their ``analysis_report``
JSON.  The digests were recorded before the guide-table term search,
the array-built pair table and the packed mask dedupe went in, so any
change to a draw, a key or a report shows up here.

At 3000 rounds almost no Bob pair equals Alice's, so a wrong sign draw
rarely changes a session; each case therefore also hashes the ``prepare``
and ``transmit`` columns, drawn term index included.  ``LONG_CASES``
run 3 * 2^17 + 5 rounds, several engine chunks with a partial last one,
so the digests also pin how the rounds are split into chunks.  Both
sets were recorded on the serial engine, before its chunks ran on
several threads.

The threshold cases hash the stdout of ``quditqkd threshold --n N
--grid 2000 --json -`` and the ``--csv`` file it writes, for n = 2..8.
They were recorded while the scan still built its rows as frozen
dataclasses, before they became named tuples built in bulk.

The distillation cases hash ``simulate_distillation``'s JSON report
and its four output arrays, on odd and even lengths, k = 0 and the
keygen-bulk depth; :func:`role_key_digest` hashes the shared facts and
final keys of a two-role session at k = 2.  They were recorded before
the pairing stage shuffled the packed labels in place instead of
gathering them through an index permutation.

:func:`role_transcripts` pins the transcript digests of alice's and
bob's links in those two sessions and in one that eve relays through
``z_flip:0.1``.  They were recorded while each role still hashed its
session-length sift list once, before the sift digest was fed window by
window, so they show that the wire bytes did not change.  They were
also recorded at 4096-round windows, and are checked with the window
set back to that; ``CHUNK_ROLE_TRANSCRIPTS`` pins the same sessions at
the default window, the engine's chunk.

To re-record after an intended change of outputs, print
``{case: digest}`` from :func:`session_digest`,
:func:`channel_digest`, :func:`report_digest`,
:func:`distill_digest`, :func:`role_key_digest`,
:func:`role_transcripts` and :func:`threshold_digests` over the cases and
paste it below.
"""

from __future__ import annotations

import hashlib
import io
import json
import socket
import threading
from contextlib import redirect_stdout

import numpy as np
import pytest

from quditqkd import cli, qstates, verify
from quditqkd.analysis import ErrorMatrix, analysis_report, bell_distribution, error_matrix
from quditqkd.channels import parse_channel_spec
from quditqkd.distill import DistillParams, sample_labeled_key, simulate_distillation
import quditqkd.netrun.roles as roles
import quditqkd.protocol as protocol
from quditqkd.field import field_spec
from quditqkd.netrun import RoleConfig, run_alice, run_bob, run_eve
from quditqkd.protocol import (
    STREAM_ALICE,
    STREAM_CHANNEL,
    SessionConfig,
    pair_table,
    prepare,
    run_session,
    spawn_streams,
    transmit,
)

ROUNDS = 3000
LONG_ROUNDS = 3 * (1 << 17) + 5
CHANNELS = ("identity", "z_flip:0.3", "shift_noise:0.2", "full_dephase", "partial_intercept:0.4")
UNITARY = CHANNELS[:4]
CASES = [(n, ch, seed) for n in (2, 3, 5, 8) for ch in CHANNELS for seed in (1, 2)]
LONG_CASES = [
    (n, ch, seed)
    for n, ch in ((2, "z_flip:0.3"), (3, "full_dephase"), (5, "partial_intercept:0.4"))
    for seed in (1, 2)
]


def _hash_arrays(h, arrays) -> None:
    for arr in arrays:
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())


def session_digest(n: int, channel: str, seed: int, rounds: int = ROUNDS) -> str:
    out = run_session(SessionConfig(n=n, rounds=rounds, channel=channel, seed=seed))
    h = hashlib.sha256(json.dumps(out.stats.to_json_dict(), sort_keys=True).encode())
    log = out.log
    _hash_arrays(
        h,
        (
            out.alice_key,
            out.bob_key,
            log.alice_i,
            log.alice_j,
            log.alice_s,
            log.bob_i,
            log.bob_j,
            log.outcome,
            log.bob_bit,
            log.offset,
        ),
    )
    return h.hexdigest()


def channel_digest(n: int, channel: str, seed: int) -> str:
    """Digest of Alice's columns and the channel's output and term columns."""
    spec = field_spec(n)
    streams = spawn_streams(seed)
    sent = prepare(pair_table(spec), streams[STREAM_ALICE], ROUNDS)
    received = transmit(parse_channel_spec(channel, spec), *sent, streams[STREAM_CHANNEL])
    h = hashlib.sha256()
    _hash_arrays(h, sent + received)
    return h.hexdigest()


def report_digest(n: int, channel: str) -> str:
    report = analysis_report(parse_channel_spec(channel, field_spec(n)))
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def threshold_digests(n: int, csv_path) -> tuple[str, str]:
    """Digests of the threshold command's JSON stdout and its CSV file."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["threshold", "--n", str(n), "--grid", "2000", "--json", "-",
                         "--csv", str(csv_path)])
    assert code == 0
    return (
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        hashlib.sha256(csv_path.read_bytes()).hexdigest(),
    )


LABEL_MATRIX = ErrorMatrix(0.75, 0.05, 0.05, 0.15)
# name: (k, r, labels, seed); "bulk" runs on the z_flip:0.3 matrix
DISTILL_CASES = {
    "k0-r1-odd": (0, 1, 4097, 1),
    "k0-r5-even": (0, 5, 4096, 2),
    "k1-r3-odd": (1, 3, 4097, 3),
    "k1-r3-even": (1, 3, 4096, 4),
    "k2-r5-odd": (2, 5, 30001, 5),
    "k4-r3-even": (4, 3, 30000, 6),
    "k3-r327-even": (3, 327, 10**6, 7),
    "bulk": (3, 5315, 10**6, 8),
}


def distill_digest(name: str) -> str:
    k, r, labels, seed = DISTILL_CASES[name]
    m = LABEL_MATRIX
    if name == "bulk":
        m = error_matrix(bell_distribution(parse_channel_spec("z_flip:0.3", field_spec(2))))
    rng = np.random.default_rng(seed)
    keys = sample_labeled_key(m, labels, rng)
    report = simulate_distillation(keys, DistillParams(k, r), rng, matrix=m)
    h = hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode())
    _hash_arrays(h, (report.alice_out, report.bob_out, report.out_x, report.out_z))
    return h.hexdigest()


def play_roles(seed: int, rounds: int, k: int, r: int, channel: str | None = None) -> dict:
    """Alice's and bob's reports over a socketpair, or through eve applying ``channel``."""
    # alice and bob ignore the session's channel; eve applies it
    session = SessionConfig(n=2, rounds=rounds, seed=seed, channel=channel or "identity")
    params = DistillParams(k, r)
    out = {}

    def play(role, runner, *socks):
        out[role] = runner(RoleConfig(role, session, params), *socks)

    if channel is None:
        a_end, b_end = socket.socketpair()
        plays = []
    else:
        (a_end, ea_end), (b_end, eb_end) = socket.socketpair(), socket.socketpair()
        plays = [("eve", run_eve, ea_end, eb_end)]
    plays += [("alice", run_alice, a_end), ("bob", run_bob, b_end)]
    threads = [threading.Thread(target=play, args=args) for args in plays]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert out["alice"].status == out["bob"].status == "pass"
    return out


def role_transcripts(seed: int, rounds: int, channel: str | None = None) -> dict:
    """Alice's and bob's (tx_sha256, rx_sha256) of their link, at k = 2, r = 3."""
    out = play_roles(seed, rounds, 2, 3, channel)
    return {
        role: (out[role].transcripts["peer"]["tx_sha256"],
               out[role].transcripts["peer"]["rx_sha256"])
        for role in ("alice", "bob")
    }


def role_key_digest(seed: int, rounds: int, k: int, r: int) -> str:
    """Digest of both roles' shared facts and final keys over a socketpair."""
    out = play_roles(seed, rounds, k, r)
    h = hashlib.sha256()
    for rep in (out["alice"], out["bob"]):
        h.update(json.dumps(rep.shared, sort_keys=True).encode())
        h.update(bytes(rep.final_key))
    return h.hexdigest()


SESSION_DIGESTS = {
    "2/identity/1": "5e2b3fd77f897e9d5936c9ad80d572e5b3e51e0035cb8b452cb82d61c195745b",
    "2/identity/2": "61d732283bfdc880dddcbd5ce53dcac5b59e83737f05076be473a22bdbd090a4",
    "2/z_flip:0.3/1": "1c6342a2aa417931a2e688d97e4b02ebc8ce9f11b33b1ef1389f6e2a1299d34e",
    "2/z_flip:0.3/2": "d80f795526cce4cbbc8e499fd214c218c0b6e84fafaf75935ae154c9cfab5336",
    "2/shift_noise:0.2/1": "26f8401a63099e853541fedf4829ebfbc8989ff06d30c0eb63fc46598b2214b3",
    "2/shift_noise:0.2/2": "575e56249ab8a6b69047fbb898fcdca35c5f9a5b8a897453996094f87c4bd66e",
    "2/full_dephase/1": "188c2db408353996cebf86638283b57523df77332b7ff4db474f4507fbaa2277",
    "2/full_dephase/2": "7aab8e6182acdfc888702b790ae28876aaed6baeaade6522e4eb785bf37e0274",
    "2/partial_intercept:0.4/1": "7a57511fc72634f6e9fd5b009d0534c2d49ada820a811ba93932802940eee585",
    "2/partial_intercept:0.4/2": "730530d149361002ceb7822d5c130cc4dd8c2a65ca78374c07977501b74e38ee",
    "3/identity/1": "574da69056e49c327b38cd43c62079e8f8a23d368d71eec6db6854db517a15af",
    "3/identity/2": "b0e94a7e9ec96937c2e7a52d376f1de80e5f6f9504c355a7cb798862d2db33c2",
    "3/z_flip:0.3/1": "3f3b43cde0e409bdf3614793ad7e0b665eb78df98b9dab9064f46b57f440b5cc",
    "3/z_flip:0.3/2": "593792ab7abd2868befceb66203a4dcfc10a03c70691090c60b66c4c0bfc4e93",
    "3/shift_noise:0.2/1": "803dfeba676ba4883278c3144c7d80cdfe7099cecb82823d10b1cf7467a0e87f",
    "3/shift_noise:0.2/2": "447d10d3df14a35035d2c5592c48d1ec4123d595493efdc309043f9628c6236c",
    "3/full_dephase/1": "9bc4488e47e7f7dec9ff88e263de4f4c4b559683967f94a83925f30f59c7b926",
    "3/full_dephase/2": "d817ae59ad16cb55670987aec5915dbd30913fc094cbd93041c004641458fde2",
    "3/partial_intercept:0.4/1": "201c41a8959454a5f5b5626ab1dd69779b612a02e5e010a5edd63571c2c22153",
    "3/partial_intercept:0.4/2": "1d5faa9f5a59afe21f490db863c30348aa5df23ea49ffa48844e6eb6889a4d35",
    "5/identity/1": "d5584eb37bb69b0806151526ff11fccfce3cca9cf1380fb4e05537d2ec5b98c8",
    "5/identity/2": "05b3859a53bc13eda870024da8bdbeb1918f1e4b5caf18e3bb5536c255fedc05",
    "5/z_flip:0.3/1": "d5584eb37bb69b0806151526ff11fccfce3cca9cf1380fb4e05537d2ec5b98c8",
    "5/z_flip:0.3/2": "05b3859a53bc13eda870024da8bdbeb1918f1e4b5caf18e3bb5536c255fedc05",
    "5/shift_noise:0.2/1": "de9ed8c66ac8978ba9e4fe03db58122f593a359437a0829457d41e5e8175beb0",
    "5/shift_noise:0.2/2": "4b8a1b137f287e8f405ea292d63ef7e1415efe9c0a68875ffdfc5e9b2ba478a2",
    "5/full_dephase/1": "090a5969fd0710036898bbfc7af9cf062e8bf75d314862761d489e77c1c640d8",
    "5/full_dephase/2": "18ae81ddb44f68114d495030df64bd51f76cc063409609952aede94d62c0fb6b",
    "5/partial_intercept:0.4/1": "d51958e2b13cb8059c5dfa2f905246426e4edff3981d09993f32529a57e969a2",
    "5/partial_intercept:0.4/2": "fb6a427d678c7108a69aaf8353e170f56866a8e6ee5340b5d7688daad97aef5a",
    "8/identity/1": "f4bf855d6dda016d65ca13a64d465e422df88135111e5005077e5cdb5dedea21",
    "8/identity/2": "8be3a4fd898d7ba5fc71a3fa70189ba6d2bd7ce2f62f0df3de6c964b1ab7115f",
    "8/z_flip:0.3/1": "f4bf855d6dda016d65ca13a64d465e422df88135111e5005077e5cdb5dedea21",
    "8/z_flip:0.3/2": "8be3a4fd898d7ba5fc71a3fa70189ba6d2bd7ce2f62f0df3de6c964b1ab7115f",
    "8/shift_noise:0.2/1": "e69b63c775d885899d86cd95e12d248f9e40d070e245a899d46bea3b7e08e56f",
    "8/shift_noise:0.2/2": "362caecc6256c1beb70f6cf54eccb4e309932b96886ab0c1d395f55a5f7af6d5",
    "8/full_dephase/1": "f4bf855d6dda016d65ca13a64d465e422df88135111e5005077e5cdb5dedea21",
    "8/full_dephase/2": "8be3a4fd898d7ba5fc71a3fa70189ba6d2bd7ce2f62f0df3de6c964b1ab7115f",
    "8/partial_intercept:0.4/1": "fae03022e9d40e75f8bf694c45647aabf80c077477c355bea63f01013c391831",
    "8/partial_intercept:0.4/2": "32bc2055794d0401a6909565a73b688054f9f3b517e4c5868358193d1c63a631",
}

LONG_SESSION_DIGESTS = {
    "2/z_flip:0.3/1": "3428396adc71b9a422b75ba9a374a6c611f2fa1bc3f2183eb620f51dbdea0970",
    "2/z_flip:0.3/2": "f90517c1454683de4c24997c1143fc9d518a28ba4ad390b06e16b94afdf06e19",
    "3/full_dephase/1": "4c4048923d39690916f0a04e9d1ce62af2d50d2389542fbe63e0c7a47dd10468",
    "3/full_dephase/2": "28189a875c0379a49a439f8845421a85d711286f6829c2060ef053d7efc3a404",
    "5/partial_intercept:0.4/1": "d6a7a84d5c65dede66954ae95c4288a69c93155efd929fbee3ed7083c6c1e1c0",
    "5/partial_intercept:0.4/2": "8576df6187416fe1ef3dc680a64ce6540cc1cb1923efb1013f117406a0c2809a",
}

CHANNEL_DIGESTS = {
    "2/identity/1": "70d32f0e468227df00f8000401072c3bf715c25506c57a15c0f2151ec6d281c1",
    "2/identity/2": "903236fe63dff24b378887e93f697cd3afadb95d68eaa308f1189ceeb973b1e5",
    "2/z_flip:0.3/1": "c4644cd5fa9eea015df18d197cf64cf970adead8173259d79e58f53718e08a25",
    "2/z_flip:0.3/2": "93cbb364783103acadf85e4b9f7e11deb3ef9f8962571c31e6c6b526f5074028",
    "2/shift_noise:0.2/1": "f04d013f92c29f711c01984d7356ebc82eb2c9a85527891126854ea7f410784f",
    "2/shift_noise:0.2/2": "a2ecf7a4d94d062dbf02220939f75284e411b5921bad735ff06ff88094e16b62",
    "2/full_dephase/1": "c41a2735057ca6ef9655162a5995635ffdabc20916185da96d4ee83819871e97",
    "2/full_dephase/2": "24fa2ddf558df588e72f3fe2fefe1af86ea4edc2e58255605b7487ca06a07ab0",
    "2/partial_intercept:0.4/1": "6ece25d2d791464d9bd77ac325642e3adf5f42ad7bad8daf763d95704ac849d4",
    "2/partial_intercept:0.4/2": "6c72ec5fc6c66274467758dfdd9e7aeb4f3a57b373b0c17fb1fd255ef7da2c7d",
    "3/identity/1": "477f42f6c8a0c8098e22e5768e962ba9cafa7688a0c553a968bf672ff17edfcc",
    "3/identity/2": "ef68c4bf82ac08099854804f7fd0c3559d657118408253bdc0036a26c55452da",
    "3/z_flip:0.3/1": "e862d94c1f35460d36d7bedbb4fc81cf85eba040b55d70c06eb41296722d275d",
    "3/z_flip:0.3/2": "f5df65c75d3f350b0e1c1caa495f33f26b325ad67e67e5545ebb370d4611823e",
    "3/shift_noise:0.2/1": "2626e8236bee8967f95377cad9753b0759ecadc2e9c7565f2e8fbc7dff6377f7",
    "3/shift_noise:0.2/2": "5800ce5d00796982c0bfa2264d08f2fdbd31e14f57624283bae5e24262899275",
    "3/full_dephase/1": "076a3512a0a10c4cc3baf99d544813d7627b9aeedc578642a7fd49ead8fb7ab2",
    "3/full_dephase/2": "95093caee616f15e481ec5be082cddd51ca335b657da394d3ef5fb20362d989a",
    "3/partial_intercept:0.4/1": "545e06840a5a5ffe8c4c5d6123bfd9e3cc98b68ed911aefa5d7bc035f213cee5",
    "3/partial_intercept:0.4/2": "f48cb61498a4183962036025e2bd60d140d9fe9eb6d43854bebad22c0010da81",
    "5/identity/1": "0fda7d876c39ab3b74b8a4b4437bc4941ff908d9f8a54565548f947510e2f0b8",
    "5/identity/2": "6008633d83a4c4a1524b334aaa1619e017f1f6ce930b1cb5efe29fd87355bc81",
    "5/z_flip:0.3/1": "be16fb3ac01acea47954a2865011c918709fe37b146fe70ff9e072691c3b8987",
    "5/z_flip:0.3/2": "f679a5de21059edd681d71ead6286d49156ba3b5ea6f3cf24452276a867e1d51",
    "5/shift_noise:0.2/1": "6317d0fc3c21f719234fd75c458d308f9d90e4321db756d5c54a590281c58eb3",
    "5/shift_noise:0.2/2": "653dcb46700579f7d457689e5b9f66586b7eaff725f549d5d7697e481592be5a",
    "5/full_dephase/1": "b722e9eeefe02a3fafc5ccde813266aedb1af649570002f9308a8333bed2a25b",
    "5/full_dephase/2": "ac49f4ba95c14496c16d6b84727962062d5c6b759e546102ea03a8b8dac80b1b",
    "5/partial_intercept:0.4/1": "6fba45cbfbc3e9e0d359f4edc152e5b0aad97b503b6e4654caab5da62eb1e9e5",
    "5/partial_intercept:0.4/2": "4682b4b7944ba7500e8ff0cd1a81998549699bb437649763194fe10a4c3b1574",
    "8/identity/1": "537f5711f9fb4d7095607afb865f3212355247d36bc562fda7964fcfaecc2af1",
    "8/identity/2": "a84ff29ab0ab5bebe3fb699f8ceca3cf770c87c371cb69d438d02e0adf7ebdb1",
    "8/z_flip:0.3/1": "dda710970eb67a9a0056bece7cdd83c85268cc4d7cbe11ab7698175912da24e8",
    "8/z_flip:0.3/2": "70f8cae738536a5ca7771c7444085b2152f4f93ec3a6765c165edbce1cbc115a",
    "8/shift_noise:0.2/1": "f171e867abb17efea312573e0ba4337f926b3ff7bfa5e190467425881c7cb843",
    "8/shift_noise:0.2/2": "523477136e13a157e73be9c98a0b0f85afb669458fab481d7d253f3154205a20",
    "8/full_dephase/1": "173b9b2684e3fa1945739c17d2fb87ae8383918195b0e721fdc1936d4b8b37a0",
    "8/full_dephase/2": "7e18d931aad8272f73a95583fda92c1a81fac5cabc88daeb690a0eee4e7b304d",
    "8/partial_intercept:0.4/1": "f9f77a36ee348c6a8cdde7309ec329afd0b1691ffae9e744125bdcb91488ebdc",
    "8/partial_intercept:0.4/2": "6b8d960c5eff2821a0805477a853cd8c57e171285acfb5193e748bf4c8465988",
}

REPORT_DIGESTS = {
    "2/identity": "b4061a12bd5b8c2d0f4575eaab88ff6f3f38fcfca13e3467b730807cbb142165",
    "2/z_flip:0.3": "052285af36429f19d87acb07893bf7e45671af423a832cab8144582ce05628d5",
    "2/shift_noise:0.2": "0fda697d0103510489c7bcef17073de0138ca7f5a144f24e64006bfcbafc79ea",
    "2/full_dephase": "88bae7f2e2325c2bd17acac1e387fc9f04d03cf986ad3ad1add43738201e1db3",
    "3/identity": "dd7c68005692b3f077451995e97d0086ac5d3147402a546ca85332c5ecdc2f23",
    "3/z_flip:0.3": "8d57b697a7dac7df1d87870812ed388ade6b9712bf55c52f6a6fa7c0de96b629",
    "3/shift_noise:0.2": "c039dfbaa0c7cda98bfdc3df6250db39afa50ccd52b50c9976dd27332efb624c",
    "3/full_dephase": "dca020251aaabb0251731c90471bbd13f3f81b67cc940db53ace8390e916ffe6",
    "5/identity": "abe8408d0b51e10be650084c669e9b26f09960d55b0cabad1df5f9fbfaf26f45",
    "5/z_flip:0.3": "f6706046936ca5e70bb211eba57314b90df1564872b47cfe9acb79d4c8c6ccbb",
    "5/shift_noise:0.2": "26e0f2d81c41237411b240b70736c73fdbd849391c8f6592c8405e6cdb28c4b8",
    "5/full_dephase": "40f0ad612a4a13bd0ab92b7e1fce9f3590544c672833eba78a084e81ba7d63cf",
    "8/identity": "1b7f10c85eef35e0f3f69de15713e3da2f08d4f3044ee552b31d84582f02a243",
    "8/z_flip:0.3": "bc52140bc29fe57bb521625b62c1170b8ce4081ed74157018f8e9a2b77bce33d",
    "8/shift_noise:0.2": "0511bbe59482b01fc94d1f020f015b25433a1c2f88f661a825849832c58ca63e",
    "8/full_dephase": "cd3297ebddcf610b7d46a005eff0cc500e597a4fe7801b126bf61fb440d87263",
}


@pytest.mark.parametrize("n,channel,seed", CASES)
def test_session_digest(n, channel, seed):
    assert session_digest(n, channel, seed) == SESSION_DIGESTS[f"{n}/{channel}/{seed}"]


@pytest.mark.parametrize("n,channel,seed", LONG_CASES)
def test_long_session_digest(n, channel, seed):
    got = session_digest(n, channel, seed, rounds=LONG_ROUNDS)
    assert got == LONG_SESSION_DIGESTS[f"{n}/{channel}/{seed}"]


@pytest.mark.parametrize("n,channel,seed", CASES)
def test_channel_digest(n, channel, seed):
    assert channel_digest(n, channel, seed) == CHANNEL_DIGESTS[f"{n}/{channel}/{seed}"]


@pytest.mark.parametrize("n,channel", [(n, ch) for n in (2, 3, 5, 8) for ch in UNITARY])
def test_report_digest(n, channel):
    assert report_digest(n, channel) == REPORT_DIGESTS[f"{n}/{channel}"]

DISTILL_DIGESTS = {
    "bulk": "b0c61d1f590e41112f9d082c52094218ad3dd48e984eda77ffa7c9c6345fb5d3",
    "k0-r1-odd": "e8b68b8306451670fbfc6fab564164d8d14c64b22ef0a26edd7248e5b3de06fd",
    "k0-r5-even": "32d0120543847aa43a2d91c2f17952f1f657143ca1335a2f0b44439780f8328f",
    "k1-r3-even": "8eb3053c09165bdcf4ab85b4d483f95da1884edcfca72b05229fc4a1654d132f",
    "k1-r3-odd": "e906fe86f3498c031b3ce08581ee6bb66aef04878416c0adba9ac97745951181",
    "k2-r5-odd": "ae2a2e6821c62abfc31456f64753441cadaee1288e8f3172f198879b9cdd0349",
    "k3-r327-even": "3b6a6e94083dc744a0f3c241729f43d2190b550fe41236ac498f870cc9080e6f",
    "k4-r3-even": "bd7d3881257a7a888132ad6f2211f7b221f9f583afb12473ad9f8e2ed1ec0cdb",
}

ROLE_KEY_DIGESTS = {
    "21/6000": "a19806edd08f67091db2c72c0abde341b9d4152f4064a24a8f6de1262991ea5e",
    "22/12295": "90f1e322ad237b7b4b326b404ef623826b870d222e31df8097f04a10b7d0d377",
}


@pytest.mark.parametrize("name", sorted(DISTILL_CASES))
def test_distill_digest(name):
    assert distill_digest(name) == DISTILL_DIGESTS[name]


@pytest.mark.parametrize("seed,rounds", [(21, 6000), (22, 3 * 4096 + 7)])
def test_role_key_digest(seed, rounds):
    assert role_key_digest(seed, rounds, 2, 3) == ROLE_KEY_DIGESTS[f"{seed}/{rounds}"]


# alice's and bob's (tx_sha256, rx_sha256): the two role_key_digest
# sessions, and one relayed by eve applying z_flip:0.1, which rewrites
# the QUDIT frames alice sends.  Recorded at 4096-round windows, before
# the window became the engine's chunk; they hold with the window set back
ROLE_TRANSCRIPTS = {
    "21/6000": {
        "alice": ("c4f741fa4bdbffaa4a3000625163a99091ba52168d3a214a118a3bef15f99611",
                  "55f8e5442d28ee418b698da2a7d95b95b7c77d87827f4748511c820f9ab15714"),
        "bob": ("55f8e5442d28ee418b698da2a7d95b95b7c77d87827f4748511c820f9ab15714",
                "c4f741fa4bdbffaa4a3000625163a99091ba52168d3a214a118a3bef15f99611"),
    },
    "22/12295": {
        "alice": ("104e5b7b26a2c6d6bc5ec682e86655840b7b3914291f92cfefba695cfd977bda",
                  "2ec0efef3e89d716b32d2100166616b51d206a8ecaeb8c479dab88447f94c47b"),
        "bob": ("2ec0efef3e89d716b32d2100166616b51d206a8ecaeb8c479dab88447f94c47b",
                "104e5b7b26a2c6d6bc5ec682e86655840b7b3914291f92cfefba695cfd977bda"),
    },
    "23/6000/z_flip:0.1": {
        "alice": ("06cee748f5cdeb5d1f1f3fd94ba98b52a4654f4d457f74d54a8a8fc46b3121d4",
                  "c9fcad6f556ddabcbc27edf886de9599aaaacc25c1b4b0d07923ee08c7b89b25"),
        "bob": ("c9fcad6f556ddabcbc27edf886de9599aaaacc25c1b4b0d07923ee08c7b89b25",
                "12ad17ecd8d632e9b4b4b18389d7555d98db74956d2c645143ca089c1f0f23a9"),
    },
}


# the same cases at the default window, the engine's 2^16-round chunk,
# and one relayed session that crosses a window
CHUNK_ROLE_TRANSCRIPTS = {
    "21/6000": {
        "alice": ("a79295b18295b942eacefd12f7574cf518d72d548f2d17d53389f038160eabe6",
                  "ec9ad38c249088bbecc26f3ebf1826d6139d4151e0d6909ab4c24822003c18c9"),
        "bob": ("ec9ad38c249088bbecc26f3ebf1826d6139d4151e0d6909ab4c24822003c18c9",
                "a79295b18295b942eacefd12f7574cf518d72d548f2d17d53389f038160eabe6"),
    },
    "22/12295": {
        "alice": ("0d46d5b2d328fc26e174510edf3b6f65531263b7caa867e563733bb579ccecce",
                  "8f5e2356201eb3a9e8f635134fc643340db0d7196db77920bef4a7f0a79d5065"),
        "bob": ("8f5e2356201eb3a9e8f635134fc643340db0d7196db77920bef4a7f0a79d5065",
                "0d46d5b2d328fc26e174510edf3b6f65531263b7caa867e563733bb579ccecce"),
    },
    "23/6000/z_flip:0.1": {
        "alice": ("8483b7cad6f4b858184d64707c71064abde7a3895fc37ed02beb57da359f1e3a",
                  "8294e3e602d59a8197854398d1d2d9d6243c61829fa956089f249817e6a2b466"),
        "bob": ("8294e3e602d59a8197854398d1d2d9d6243c61829fa956089f249817e6a2b466",
                "c87a441a21cdc10d4751994e39582783719ee058f58fa598b9c8383a355345c5"),
    },
    "24/70000/z_flip:0.1": {
        "alice": ("a1a3094fd64ff08a354d16487534186cb696d63b50593dc93661d228f666d0bc",
                  "7014475b1a5234a40ea0f8f44c8348125a262fd5913e9acaa6dbfdb4c3b615c7"),
        "bob": ("7014475b1a5234a40ea0f8f44c8348125a262fd5913e9acaa6dbfdb4c3b615c7",
                "e1d4f517c6460d10c30493acb68847f71c9d482b9682bd1021a5d4d89ac71b15"),
    },
}


@pytest.mark.parametrize("case", sorted(ROLE_TRANSCRIPTS))
def test_role_transcripts(case, monkeypatch):
    monkeypatch.setattr(roles, "WINDOW", 4096)
    seed, rounds, *channel = case.split("/")
    assert role_transcripts(int(seed), int(rounds), *channel) == ROLE_TRANSCRIPTS[case]


@pytest.mark.parametrize("case", sorted(CHUNK_ROLE_TRANSCRIPTS))
def test_role_transcripts_at_the_engine_chunk(case):
    assert roles.WINDOW == protocol._ENGINE_CHUNK
    seed, rounds, *channel = case.split("/")
    assert role_transcripts(int(seed), int(rounds), *channel) == CHUNK_ROLE_TRANSCRIPTS[case]


# n: (sha256 of the --json - stdout, sha256 of the --csv file), grid 2000
THRESHOLD_DIGESTS = {
    2: ("2cc92700d52e56bd106a7911459341104e18567ac1b914d65a7cee6f7b4e51d0",
        "8a2f2806726e06d9a63d097e99b4ff4e6e724930d05311369f9bda2d2a0e4fe0"),
    3: ("d36423a9116647906e13f9e9731b12b20b1b2b4090ad96edaadd9ed162b1b8ca",
        "9df255ec2b7fcaf56868eb341f25d1704067cec410bfa2d701a77e2020823a2d"),
    4: ("8c5906a372b0b67b3b5c310ac158e55a5399a74309aed477af5f00827ccc1148",
        "da5f56dc9b9712dd413d48fb130f22824139025d22caf06a0fbbb29fb926e558"),
    5: ("f61660194cc7dbc6e44b608e4e3aac01c585f87195198c303e0c43d14f6589f8",
        "c4daa6f9399d50099a9fdd90e8e8d45e28233614938af0ff15f8f5dcff056551"),
    6: ("b3e12a06841cb60cabb6b510a55916326e66e2eb9aaaef9c05d545a6f9fb9cc9",
        "0fbf817e2fb8abe43f2516647d21d88f5c475e1544523e3ee3b11dd9382a2abf"),
    7: ("978543bcac9bbec4a19a89915764735e838aa3697d37ca1848fbc2392b0d6d73",
        "372b229ddfbb747846ab4c078a4e25d78dd859d913a6aab545efb91432660614"),
    8: ("74e9273a2efe2da0004e4805da967084fea7148b44d9a412ea53490f1ec08153",
        "35f42ba7bd7ecbe66b5e89e99e424ddf3ed0184ff5548a2776a0d22dcd6f09b9"),
}


@pytest.mark.parametrize("n", sorted(THRESHOLD_DIGESTS))
def test_threshold_digest(n, tmp_path):
    assert threshold_digests(n, tmp_path / "scan.csv") == THRESHOLD_DIGESTS[n]


def test_planted_frame_sign_fault_reaches_verify_and_analysis(monkeypatch):
    """One sign flip in the array frame rule fails both of its users."""
    real = qstates.conjugate_frame

    def flipped(*args):
        index, sign = real(*args)
        return index, sign ^ 1

    monkeypatch.setattr(qstates, "conjugate_frame", flipped)
    assert not verify.check_conjugation(2).passed
    assert report_digest(2, "z_flip:0.3") != REPORT_DIGESTS["2/z_flip:0.3"]
