"""Corpus-level BLEU and multi-reference ROUGE-L."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass


@dataclass
class EvalPair:
    hypothesis: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references:
            raise ValueError("at least one reference required")
        if not self.hypothesis or any(not r for r in self.references):
            raise ValueError("hypothesis and references must be non-empty")


@dataclass
class BleuReport:
    bleu: float                 # 0..100
    precisions: list[float]     # n = 1..4
    brevity_penalty: float


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_corpus(pairs: list[EvalPair], max_n: int = 4) -> BleuReport:
    """Corpus BLEU with clipped counts, closest-reference length and
    brevity penalty (no smoothing: a zero n-gram match anywhere gives 0)."""
    if not pairs:
        raise ValueError("bleu_corpus requires at least one pair")
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for pair in pairs:
        hyp = pair.hypothesis
        hyp_len += len(hyp)
        # closest reference length; ties go to the shorter reference
        ref_len += min((abs(len(r) - len(hyp)), len(r))
                       for r in pair.references)[1]
        for n in range(1, max_n + 1):
            counts = _ngrams(hyp, n)
            if not counts:
                continue
            max_ref = Counter()
            for ref in pair.references:
                for ng, c in _ngrams(ref, n).items():
                    max_ref[ng] = max(max_ref[ng], c)
            total[n - 1] += sum(counts.values())
            matched[n - 1] += sum(min(c, max_ref[ng]) for ng, c in counts.items())
    precisions = [m / t if t else 0.0 for m, t in zip(matched, total)]
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    if min(precisions) <= 0.0:
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / max_n)
    return BleuReport(bleu=100.0 * score, precisions=precisions,
                      brevity_penalty=bp)


def _lcs_length(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l_pair(hypothesis: list[str], reference: list[str],
                 beta: float = 1.0) -> float:
    lcs = _lcs_length(hypothesis, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(hypothesis)
    r = lcs / len(reference)
    return (1 + beta ** 2) * p * r / (r + beta ** 2 * p)


def rouge_l(pairs: list[EvalPair], beta: float = 1.0) -> float:
    """Mean over pairs of the best F-score across references."""
    if not pairs:
        raise ValueError("rouge_l requires at least one pair")
    return sum(max(rouge_l_pair(p.hypothesis, r, beta) for r in p.references)
               for p in pairs) / len(pairs)
