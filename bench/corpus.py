"""Seeded corpus generator for the igbotext benchmark.

Words are drawn from the repository's own material: the doc1 fixture, the
shipped lexicon and the shipped stop list, plus synthetic Igbo-shaped words
built from the Igbo alphabet so that vocabularies reach realistic sizes.
On top of plain words the generator mixes in the surface forms the
pipeline has rules for: tone marks, NFD sequences, digit-bearing words,
currency signs, clitic and hyphenated forms, apostrophes and stray
punctuation outside the pipeline's deletion list (``—``, ``…`` and others).
The three lexicon phrases that contain stop words (``na``, ``iri``,
``abuo``), and so never reach the n-gram tables whole, are always
included, so that a change in how they are matched shows in the output.

The same seed always produces the same files. The program under test only
ever sees the files written here.
"""

from __future__ import annotations

import random
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

CONSONANTS = (
    "b", "ch", "d", "f", "g", "gb", "gh", "gw", "h", "j", "k", "kp", "kw", "l",
    "m", "n", "nw", "ny", "p", "r", "s", "sh", "t", "v", "w", "y", "z",
)
VOWELS = ("a", "e", "i", "ị", "o", "ọ", "u", "ụ")
TONES = ("̀", "́", "̄")  # grave, acute, macron
HYPHEN_CLITICS = ("ga-", "aga-", "na-", "ana-", "oga-", "iga-", "ona-", "ina-")
APOSTROPHE_CLITICS = ("n’", "n'", "g'", "g’")
STRAY_PUNCTUATION = ("—", "…", "‘", "#", "|", "~", "-")
CURRENCY = ("₦", "$", "£", "€")
# Lexicon phrases that contain stop-list words.
STOPWORD_PHRASES = ("ezi na ụlọ", "okwu na ụka", "iri abuo")


@dataclass(frozen=True)
class Mix:
    """Per-word probabilities of each special surface form."""

    stop: float
    lexicon: float
    tone: float
    nfd: float
    hyphen: float
    clitic: float
    digit: float
    currency: float
    stray: float


# Mostly plain words: the text stages do ordinary work, few rules fire.
PLAIN = Mix(stop=0.25, lexicon=0.01, tone=0.01, nfd=0.005, hyphen=0.02,
            clitic=0.01, digit=0.005, currency=0.003, stray=0.003)
# Dense in every form strict mode and the lexicon layer care about.
DENSE = Mix(stop=0.20, lexicon=0.10, tone=0.20, nfd=0.15, hyphen=0.08,
            clitic=0.08, digit=0.02, currency=0.01, stray=0.01)


@dataclass
class Stats:
    """Input properties of one workload, counted over whitespace words."""

    bytes: int = 0
    words: int = 0
    documents: int = 0
    nfd_words: int = 0
    tone_words: int = 0
    clitic_words: int = 0
    vocabulary: set[str] = field(default_factory=set)

    def add(self, text: str) -> None:
        self.bytes += len(text.encode("utf-8"))
        self.documents += 1
        for word in text.split():
            self.words += 1
            self.vocabulary.add(word)
            if not unicodedata.is_normalized("NFC", word):
                self.nfd_words += 1
            if any(t in unicodedata.normalize("NFD", word) for t in TONES):
                self.tone_words += 1
            if _is_clitic(word):
                self.clitic_words += 1

    def as_dict(self) -> dict:
        words = max(self.words, 1)
        return {
            "bytes": self.bytes,
            "words": self.words,
            "vocabulary": len(self.vocabulary),
            "documents": self.documents,
            "nfd_share": round(self.nfd_words / words, 4),
            "tone_share": round(self.tone_words / words, 4),
            "clitic_share": round(self.clitic_words / words, 4),
        }


def _is_clitic(word: str) -> bool:
    folded = word.lower().replace("'", "’")
    prefixes = HYPHEN_CLITICS + ("n’", "g’")
    return any(folded.startswith(p) and len(folded) > len(p) for p in prefixes)


class Sources:
    """Word material read from the repository's fixture and data files."""

    def __init__(self, root: Path) -> None:
        doc1 = (root / "tests" / "fixtures" / "doc1.txt").read_text(encoding="utf-8")
        self.doc1_words = sorted({w.lower() for w in re.findall(r"[^\W\d_]+(?:-[^\W\d_]+)?", doc1)})
        stop_text = (root / "src" / "igbotext" / "data" / "stopwords.txt").read_text(encoding="utf-8")
        self.stopwords = sorted({w.strip() for w in re.split(r"[,\n]", stop_text) if w.strip()})
        lex_text = (root / "src" / "igbotext" / "data" / "lexicon.tsv").read_text(encoding="utf-8")
        phrases = [
            line.split("\t")[0].strip()
            for line in lex_text.splitlines()
            if line.strip() and not line.startswith("#")
        ]
        self.phrases = sorted(set(phrases) | set(STOPWORD_PHRASES))


class Generator:
    """Draws sentences from a Zipf-weighted vocabulary of a given size."""

    def __init__(self, sources: Sources, rng: random.Random, vocab_size: int, mix: Mix) -> None:
        self.src = sources
        self.rng = rng
        self.mix = mix
        # The doc1 words take the most frequent ranks and synthetic word
        # lengths follow the rank, so that bytes per word hardly vary with
        # the seed and throughput figures stay comparable across seeds.
        words = list(sources.doc1_words)
        seen = set(words) | set(sources.stopwords)
        while len(words) < vocab_size:
            w = self._synthetic_word(2 + len(words) % 3, len(words) % 10 < 3)
            if w not in seen:
                seen.add(w)
                words.append(w)
        self.words = words
        self.cum_weights = []
        total = 0.0
        for rank in range(len(words)):
            total += 1.0 / (rank + 2.7)
            self.cum_weights.append(total)

    def _synthetic_word(self, syllables: int, lead_vowel: bool) -> str:
        rng = self.rng
        parts = [rng.choice(VOWELS)] if lead_vowel else []
        for _ in range(syllables):
            parts.append(rng.choice(CONSONANTS) + rng.choice(VOWELS))
        return "".join(parts)

    def _plain(self) -> str:
        return self.rng.choices(self.words, cum_weights=self.cum_weights)[0]

    def _tone(self, word: str) -> str:
        decomposed = unicodedata.normalize("NFD", word)
        spots = [i for i, ch in enumerate(decomposed) if ch in "aeiou"]
        if not spots:
            return word
        i = self.rng.choice(spots)
        marked = decomposed[: i + 1] + self.rng.choice(TONES) + decomposed[i + 1:]
        return unicodedata.normalize("NFC", marked)

    def _word(self) -> list[str]:
        rng, mix = self.rng, self.mix
        r = rng.random()
        if r < mix.stop:
            return [rng.choice(self.src.stopwords)]
        r -= mix.stop
        if r < mix.lexicon:
            return rng.choice(self.src.phrases).split()
        r -= mix.lexicon
        if r < mix.hyphen:
            return [self._plain() + "-" + self._plain()]
        r -= mix.hyphen
        if r < mix.clitic:
            return [rng.choice(HYPHEN_CLITICS + APOSTROPHE_CLITICS) + self._plain()]
        r -= mix.clitic
        if r < mix.digit:
            return [rng.choice(("2020", "10:30", "12.5", "₦500", "$20", "1999-2001", "3rd"))]
        r -= mix.digit
        if r < mix.currency:
            return [rng.choice(CURRENCY) + self._plain()]
        r -= mix.currency
        if r < mix.stray:
            return [rng.choice(STRAY_PUNCTUATION)]
        return [self._plain()]

    def _decorate(self, word: str) -> str:
        rng, mix = self.rng, self.mix
        if rng.random() < mix.tone:
            word = self._tone(word)
        if rng.random() < mix.nfd:
            word = unicodedata.normalize("NFD", word)
        return word

    def sentence(self) -> str:
        words: list[str] = []
        for _ in range(self.rng.randint(8, 20)):
            words.extend(self._decorate(w) for w in self._word())
        words[0] = words[0][:1].upper() + words[0][1:]
        if self.rng.random() < 0.3:
            i = self.rng.randrange(len(words))
            words[i] += ","
        return " ".join(words) + self.rng.choice((".", ".", ".", "?", "!"))

    def document(self, target_bytes: int) -> str:
        sentences = [f"{phrase.capitalize()} {self._plain()} {self._plain()}."
                     for phrase in STOPWORD_PHRASES]
        size = 0
        while size < target_bytes:
            s = self.sentence()
            sentences.append(s)
            size += len(s.encode("utf-8")) + 1
        lines = [" ".join(sentences[i:i + 12]) for i in range(0, len(sentences), 12)]
        return "\n".join(lines) + "\n"

    def words_document(self, n_words: int) -> str:
        sentences: list[str] = []
        count = 0
        while count < n_words:
            s = self.sentence()
            sentences.append(s)
            count += len(s.split())
        return " ".join(sentences) + "\n"


@dataclass(frozen=True)
class Spec:
    """How one workload's input is generated."""

    kind: str  # "doc" (one large file) or "dir" (many small files)
    mix: Mix
    vocab: int
    size: int  # bytes for "doc"; documents for "dir"
    words_per_doc: int = 0


def warm_document(root: Path, seed: int | str) -> str:
    """A small plain document for the set-up op."""
    gen = Generator(Sources(root), random.Random(seed), 200, PLAIN)
    return gen.document(2_000)


def generate(root: Path, spec: Spec, seed: int | str, out: Path) -> tuple[Path, dict]:
    """Write the workload's input under ``out``; return its path and stats."""
    rng = random.Random(seed)
    gen = Generator(Sources(root), rng, spec.vocab, spec.mix)
    stats = Stats()
    out.mkdir(parents=True, exist_ok=True)
    if spec.kind == "doc":
        path = out / "input.txt"
        text = gen.document(spec.size)
        path.write_text(text, encoding="utf-8")
        stats.add(text)
    else:
        path = out / "corpus"
        path.mkdir(exist_ok=True)
        for old in path.glob("*.txt"):
            old.unlink()
        for i in range(spec.size):
            text = gen.words_document(spec.words_per_doc)
            (path / f"doc{i:05d}.txt").write_text(text, encoding="utf-8")
            stats.add(text)
    return path, stats.as_dict()
