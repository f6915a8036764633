"""Web-of-trust identities: keys, friend-signed certificates, revocation.

Users register once and get a deterministic key pair from their seed.
Friends sign each other's certificates; the resulting signer->subject
edges form the trust graph that authentication later intersects.
Misbehavior reports devaluate a user and revoke after a threshold;
revocation knowledge merges after every successful authentication.

A simulated run reads a user's self-certificate and the candidate keys,
never a friend's certificate, so a roster issues each certificate only
when something first reads it.  `register_user` issues the
self-certificate.  `Roster.befriend(a, b)` adds one friendship entry to
both users' repositories; it stands for the two certificates a mutual
signing issues, `a` certifying `b` and then `b` certifying `a`, and
holds both users' identities.  The candidate ids and keys are read off
it.  The first read that needs one of its certificates (`get`
of one of its two pairs, or `certificates()`) issues both with
`make_certificate` and keeps them on the entry, so the two repositories
share the two objects.

A certificate is signed the first time its `signature` is read:
`make_certificate` keeps the signer's private key in the certificate's
private `_unsigned` slot, and the first read makes the Schnorr signature
with `crypto.sign`, stores it and drops the key.  Signing is
deterministic, so every reader gets the bytes an eager signature would
have had, and a certificate shared by two repositories is signed once.

A repository keeps its certificates and friendships in one list, in the
order they were added, and holds the last one added for each (subject,
signer), a friendship counting as its two pairs: the first read after an
`add` drops every entry a later one replaced, and a friendship that a
later certificate replaced only in part is issued and leaves its other
certificate in its place.  The simulator serializes all mutations, so no
locking is needed anywhere in this module.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType

from . import crypto
from .geomodel import DocumentError, document_statements

REVOCATION_THRESHOLD = 3
_NO_RECORDS: Mapping = MappingProxyType({})


class UnknownUserError(Exception):
    pass


class DuplicateUserError(Exception):
    pass


class MissingCertificateError(LookupError):
    """A user's repository no longer holds the user's self-certificate."""


@dataclass(frozen=True, slots=True)
class KeyPair:
    public_key: bytes
    private_key: bytes


def _cert_message(subject: str, subject_public_key: bytes) -> bytes:
    return crypto.sha256(b"vk-cert", subject.encode(), subject_public_key)


class _SignOnRead:
    """`Certificate.signature`: its slot, signed on the first read.

    A certificate from `make_certificate` leaves the slot empty and keeps
    the signer's private key in `_unsigned`.  The first read signs, fills
    the slot and drops the key; every later read returns the slot.
    Setting passes through to the slot, since the frozen `__init__`
    writes every field with `object.__setattr__`."""

    __slots__ = ("slot",)

    def __init__(self, slot):
        self.slot = slot

    def __get__(self, cert, owner=None):
        if cert is None:
            return self
        try:
            return self.slot.__get__(cert, owner)
        except AttributeError:
            pass
        signature = crypto.sign(cert._unsigned, _cert_message(cert.subject, cert.subject_public_key))
        self.slot.__set__(cert, signature)
        object.__delattr__(cert, "_unsigned")
        return signature

    def __set__(self, cert, value):
        self.slot.__set__(cert, value)


class _Pending:
    """The signer's private key of a certificate not yet signed, in a slot
    of a base class because `slots=True` makes slots for the fields only."""
    __slots__ = ("_unsigned",)


@dataclass(frozen=True, slots=True)
class Certificate(_Pending):
    """A signer's attestation binding `subject` to `subject_public_key`."""
    subject: str
    subject_public_key: bytes
    signer: str
    signature: bytes
    trust_weight: int = 0

    def verify(self, signer_public_key: bytes) -> bool:
        return crypto.verify(signer_public_key, _cert_message(self.subject, self.subject_public_key),
                             self.signature)


# Installed after the decorator, which makes the slot.  Equality, hashing,
# repr and dataclasses.replace read the field as an attribute, so they
# sign a pending certificate first and never see its key.
Certificate.signature = _SignOnRead(Certificate.signature)
_write = object.__setattr__


def make_certificate(subject: str, subject_public_key: bytes, signer: str,
                     signer_private_key: bytes) -> Certificate:
    """Issue a certificate that is signed the first time its `signature` is read.

    Writes the slots the way the frozen `__init__` does, but leaves the
    signature's empty instead of filling and then emptying it."""
    cert = object.__new__(Certificate)
    _write(cert, "subject", subject)
    _write(cert, "subject_public_key", subject_public_key)
    _write(cert, "signer", signer)
    _write(cert, "trust_weight", 0)
    _write(cert, "_unsigned", signer_private_key)
    return cert


_SUBJECT_SIGNER = attrgetter("subject", "signer")


class _Friendship:
    """The two certificates of a mutual signing, issued on first read.

    `a` certifies `b` (subject `b`, signer `a`), then `b` certifies `a`,
    in the order `Roster.befriend(a, b)` has always issued them.  Both
    users' repositories hold this one entry."""

    __slots__ = ("a", "b", "_pair")

    def __init__(self, a: UserIdentity, b: UserIdentity):
        self.a, self.b = a, b
        self._pair: tuple[Certificate, Certificate] | None = None

    def pairs(self) -> tuple[tuple[str, str], tuple[str, str]]:
        """The (subject, signer) of each certificate, in order."""
        a, b = self.a.user_id, self.b.user_id
        return (b, a), (a, b)

    def issue(self) -> tuple[Certificate, Certificate]:
        """Both certificates, issued by the first call and kept."""
        if self._pair is None:
            a, b = self.a, self.b
            self._pair = (
                make_certificate(b.user_id, b.keys.public_key, a.user_id, a.keys.private_key),
                make_certificate(a.user_id, a.keys.public_key, b.user_id, b.keys.private_key))
        return self._pair


class CertificateRepository:
    """One user's certificate store: the self-certificate plus friends'.

    Certificates and friendships sit in one list in the order they were
    added, and the repository holds one certificate per (subject,
    signer): the last one added.  `add` only appends; the first read
    after it drops every entry that later ones replaced."""

    __slots__ = ("owner", "_entries", "_replaced", "_candidate_keys")

    def __init__(self, owner: str):
        self.owner = owner
        self._entries: list[Certificate | _Friendship] = []
        self._replaced = False        # the list may hold a replaced entry
        self._candidate_keys: tuple[bytes, ...] | None = None

    def add(self, entry: Certificate | _Friendship) -> None:
        self._entries.append(entry)
        self._replaced = True
        self._candidate_keys = None

    def _held(self) -> list[Certificate | _Friendship]:
        """The list, once every replaced entry is dropped from it.  A
        friendship replaced in one pair only gives way to its other
        certificate."""
        if self._replaced:
            seen: set[tuple[str, str]] = set()
            kept = []
            for entry in reversed(self._entries):
                if type(entry) is _Friendship:
                    pairs = entry.pairs()
                    live = [pair not in seen for pair in pairs]
                    seen.update(pairs)
                    if all(live):
                        kept.append(entry)
                    elif any(live):
                        kept.append(entry.issue()[live.index(True)])
                else:
                    key = _SUBJECT_SIGNER(entry)
                    if key not in seen:
                        seen.add(key)
                        kept.append(entry)
            self._entries = kept[::-1]
            self._replaced = False
        return self._entries

    def _facts(self) -> Iterator[tuple[str, str, bytes]]:
        """(subject, signer, subject's public key) of every held
        certificate, read off a friendship without issuing it."""
        for entry in self._held():
            if type(entry) is _Friendship:
                a, b = entry.a, entry.b
                yield b.user_id, a.user_id, b.keys.public_key
                yield a.user_id, b.user_id, a.keys.public_key
            else:
                yield entry.subject, entry.signer, entry.subject_public_key

    def get(self, subject: str, signer: str) -> Certificate | None:
        """The certificate `signer` issued for `subject`, or None.  Issues
        only the friendship that holds it."""
        for entry in self._held():
            if type(entry) is _Friendship:
                pairs = entry.pairs()
                if (subject, signer) in pairs:
                    return entry.issue()[pairs.index((subject, signer))]
            elif entry.subject == subject and entry.signer == signer:
                return entry
        return None

    def certificates(self) -> list[Certificate]:
        """Every held certificate, in (subject, signer) order; issues every
        friendship."""
        out: list[Certificate] = []
        for entry in self._held():
            if type(entry) is _Friendship:
                out.extend(entry.issue())
            else:
                out.append(entry)
        return sorted(out, key=_SUBJECT_SIGNER)

    def candidate_ids(self) -> set[str]:
        """Users this repository can vouch knowing.

        A user counts if it appears as a subject the owner holds a
        certificate for (the owner included, via the self-certificate)
        or as a signer of the owner's own certificate.
        """
        out: set[str] = set()
        for subject, signer, _ in self._facts():
            if signer == self.owner:
                out.add(subject)
            if subject == self.owner:
                out.add(signer)
        return out

    def candidate_keys(self) -> tuple[bytes, ...]:
        """Public keys usable as shared authentication secrets, sorted.

        Built once after each `add` and shared by every caller, so it is
        a tuple that none of them can change."""
        if self._candidate_keys is None:
            self._candidate_keys = tuple(sorted({key for _, _, key in self._facts()}))
        return self._candidate_keys


def common_friends(repo_a: CertificateRepository, repo_b: CertificateRepository) -> set[str]:
    """Users certified in both repositories: the candidate shared secrets."""
    return repo_a.candidate_ids() & repo_b.candidate_ids()


@dataclass(slots=True)
class UserIdentity:
    user_id: str
    keys: KeyPair
    repository: CertificateRepository

    @property
    def self_certificate(self) -> Certificate:
        cert = self.repository.get(self.user_id, self.user_id)
        if cert is None:
            raise MissingCertificateError(
                f"repository of {self.user_id} lost its self-certificate")
        return cert


class Roster:
    """All registered users of a scenario, with their friendship signatures."""

    def __init__(self) -> None:
        self.users: dict[str, UserIdentity] = {}

    def befriend(self, a: str, b: str) -> None:
        """Mutual signing: both users gain both certificates, as one
        friendship entry that issues them when first read."""
        first, second = self.users[a], self.users[b]
        if first.user_id == second.user_id:
            raise ValueError("self-certificates are created at registration")
        friendship = _Friendship(first, second)
        first.repository.add(friendship)
        second.repository.add(friendship)

    def user(self, user_id: str) -> UserIdentity:
        try:
            return self.users[user_id]
        except KeyError:
            raise UnknownUserError(user_id) from None


def register_user(roster: Roster, user_id: str, seed: int | str | bytes) -> UserIdentity:
    """Create deterministic keys from (user id, seed) plus the self-certificate."""
    if user_id in roster.users:
        raise DuplicateUserError(user_id)
    if isinstance(seed, int):
        seed = str(seed)
    if isinstance(seed, str):
        seed = seed.encode()
    private = crypto.derive_private_key(user_id.encode() + b"\x00" + seed)
    keys = KeyPair(crypto.public_key(private), private)
    repo = CertificateRepository(user_id)
    repo.add(make_certificate(user_id, keys.public_key, user_id, private))
    identity = UserIdentity(user_id, keys, repo)
    roster.users[user_id] = identity
    return identity


def sign_friend(signer: UserIdentity, subject: UserIdentity) -> Certificate:
    """Signer certifies the subject's key; both repositories gain the certificate."""
    if signer.user_id == subject.user_id:
        raise ValueError("self-certificates are created at registration")
    cert = make_certificate(subject.user_id, subject.keys.public_key,
                            signer.user_id, signer.keys.private_key)
    signer.repository.add(cert)
    subject.repository.add(cert)
    return cert


class TrustGraph:
    """Directed signer->subject edges, one per verifying certificate."""

    def __init__(self) -> None:
        self.nodes: set[str] = set()
        self.edges: set[tuple[str, str]] = set()

    @classmethod
    def from_roster(cls, roster: Roster) -> "TrustGraph":
        graph = cls()
        graph.nodes = set(roster.users)
        seen: set[tuple[str, str]] = set()
        for identity in roster.users.values():
            for cert in identity.repository.certificates():
                key = (cert.signer, cert.subject)
                if key in seen:
                    continue
                seen.add(key)
                signer = roster.users.get(cert.signer)
                if signer and cert.verify(signer.keys.public_key):
                    graph.edges.add(key)
        return graph

    def trust_weight(self, subject: str) -> int:
        """Number of distinct signatures the subject's key has received."""
        return sum(1 for signer, subj in self.edges if subj == subject and signer != subject)


@dataclass
class RevocationRecord:
    subject: str
    misbehavior_count: int = 0
    revoked: bool = False


class RevocationStore:
    """Per-node devaluation ledger; revokes at the misbehavior threshold.

    A store that has no record shares one read-only empty `records`;
    `_record`, the one writer, gives the store its own on the first
    report or merge."""

    __slots__ = ("threshold", "known_users", "records")

    def __init__(self, known_users: Iterable[str] | None = None,
                 threshold: int = REVOCATION_THRESHOLD):
        self.threshold = threshold
        # frozenset() of a frozenset is that same object, so nodes given one
        # shared roster set share it instead of each holding a copy.
        self.known_users = frozenset(known_users) if known_users is not None else None
        self.records: Mapping[str, RevocationRecord] = _NO_RECORDS

    def _record(self, subject: str) -> RevocationRecord:
        if self.records is _NO_RECORDS:
            self.records = {}
        rec = self.records.get(subject)
        if rec is None:
            rec = self.records[subject] = RevocationRecord(subject)
        return rec

    def report(self, subject: str) -> RevocationRecord:
        if self.known_users is not None and subject not in self.known_users:
            raise UnknownUserError(subject)
        rec = self._record(subject)
        rec.misbehavior_count += 1
        if rec.misbehavior_count >= self.threshold:
            rec.revoked = True
        return rec

    def is_revoked(self, subject: str) -> bool:
        rec = self.records.get(subject)
        return rec.revoked if rec else False

    def merge_record(self, subject: str, count: int, revoked: bool) -> None:
        rec = self._record(subject)
        rec.misbehavior_count = max(rec.misbehavior_count, count)
        if revoked or rec.misbehavior_count >= self.threshold:
            rec.revoked = True


def report_misbehavior(store: RevocationStore, subject: str) -> RevocationRecord:
    return store.report(subject)


def exchange_revocations(store_a: RevocationStore, store_b: RevocationStore) -> None:
    """Merge both ledgers to the union, per-subject count to the max."""
    snapshot_a = [(r.subject, r.misbehavior_count, r.revoked) for r in store_a.records.values()]
    snapshot_b = [(r.subject, r.misbehavior_count, r.revoked) for r in store_b.records.values()]
    for subject, count, revoked in snapshot_b:
        store_a.merge_record(subject, count, revoked)
    for subject, count, revoked in snapshot_a:
        store_b.merge_record(subject, count, revoked)


def load_roster(text: str) -> Roster:
    """Parse a roster file: `user <id> <seed>` and `friend <idA> <idB>` lines."""
    problems: list[str] = []
    roster = Roster()
    friendships: list[tuple[int, str, str]] = []
    for lineno, fields in document_statements(text):
        if fields[0] == "user":
            if len(fields) != 3:
                problems.append(f"line {lineno}: user needs <id> <seed>")
                continue
            try:
                register_user(roster, fields[1], fields[2])
            except DuplicateUserError:
                problems.append(f"line {lineno}: duplicate user id {fields[1]!r}")
        elif fields[0] == "friend":
            if len(fields) != 3:
                problems.append(f"line {lineno}: friend needs <idA> <idB>")
                continue
            friendships.append((lineno, fields[1], fields[2]))
        else:
            problems.append(f"line {lineno}: unknown statement {fields[0]!r}")
    for lineno, a, b in friendships:
        if a not in roster.users or b not in roster.users:
            problems.append(f"line {lineno}: friendship references unknown user")
        elif a == b:
            problems.append(f"line {lineno}: users cannot befriend themselves")
        else:
            roster.befriend(a, b)
    if problems:
        raise DocumentError(problems)
    return roster

