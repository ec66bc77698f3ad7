#include "grammar/regex.hpp"

#include <cstdint>

#include "support/logging.hpp"

namespace lpp::grammar {

RegexPtr
Regex::symbol(uint32_t id)
{
    auto node = std::shared_ptr<Regex>(new Regex());
    node->nodeKind = Kind::Symbol;
    node->sym = id;
    return node;
}

RegexPtr
Regex::repeat(RegexPtr body, uint64_t count)
{
    LPP_REQUIRE(body != nullptr, "repeat of null body");
    LPP_REQUIRE(count >= 1, "repeat count must be >= 1");
    if (count == 1)
        return body;
    if (body->kind() == Kind::Repeat) {
        // (x^n)^m == x^(n*m)
        return repeat(body->body(), body->count() * count);
    }
    auto node = std::shared_ptr<Regex>(new Regex());
    node->nodeKind = Kind::Repeat;
    node->repeatBody = std::move(body);
    node->repeatCount = count;
    return node;
}

namespace {

/** @return the repeated unit of a node (the body for Repeats). */
const RegexPtr &
unitOf(const RegexPtr &r)
{
    return r->kind() == Regex::Kind::Repeat ? r->body() : r;
}

/** @return the repeat count of a node (1 for non-Repeats). */
uint64_t
countOf(const RegexPtr &r)
{
    return r->kind() == Regex::Kind::Repeat ? r->count() : 1;
}

/**
 * Language equivalence: concrete regexes denote a single string, so two
 * are equivalent iff they expand to the same string (cheap structural
 * check first).
 */
bool
equivalent(const RegexPtr &a, const RegexPtr &b)
{
    if (a->equals(*b))
        return true;
    if (a->expandedLength() != b->expandedLength())
        return false;
    return a->expand() == b->expand();
}

/**
 * If seq[at..j) expands to exactly `want`, return j; otherwise 0.
 * Element boundaries must align with the end of `want`.
 */
size_t
forwardSpan(const std::vector<RegexPtr> &seq, size_t at,
            const std::vector<uint32_t> &want)
{
    uint64_t have = 0;
    size_t j = at;
    std::vector<uint32_t> got;
    while (j < seq.size() && have < want.size()) {
        auto ex = seq[j]->expand();
        got.insert(got.end(), ex.begin(), ex.end());
        have += ex.size();
        ++j;
    }
    if (have == want.size() && got == want)
        return j;
    return 0;
}

/**
 * If some tail seq[j..end) expands to exactly `want`, return j;
 * otherwise SIZE_MAX.
 */
size_t
backwardSpan(const std::vector<RegexPtr> &seq,
             const std::vector<uint32_t> &want)
{
    uint64_t have = 0;
    size_t j = seq.size();
    while (j > 0 && have < want.size()) {
        --j;
        have += seq[j]->expandedLength();
    }
    if (have != want.size())
        return SIZE_MAX;
    std::vector<uint32_t> got;
    for (size_t k = j; k < seq.size(); ++k) {
        auto ex = seq[k]->expand();
        got.insert(got.end(), ex.begin(), ex.end());
    }
    return got == want ? j : SIZE_MAX;
}

/** If `parts` is k >= 2 repetitions of its own prefix, return that k. */
size_t
wholePeriodicity(const std::vector<RegexPtr> &parts)
{
    size_t n = parts.size();
    for (size_t period = 1; period <= n / 2; ++period) {
        if (n % period != 0)
            continue;
        bool ok = true;
        for (size_t i = period; i < n && ok; ++i)
            ok = parts[i]->equals(*parts[i % period]);
        if (ok)
            return n / period;
    }
    return 1;
}

} // namespace

RegexPtr
Regex::concat(std::vector<RegexPtr> parts)
{
    // Flatten nested concats.
    std::vector<RegexPtr> flat;
    for (const auto &p : parts) {
        LPP_REQUIRE(p != nullptr, "concat of null part");
        if (p->kind() == Kind::Concat) {
            for (const auto &q : p->parts())
                flat.push_back(q);
        } else {
            flat.push_back(p);
        }
    }

    // Merge pass. Beyond adjacent-equal folding, a Repeat absorbs a
    // spelled-out copy of its own body on either side — Sequitur's rule
    // utility often leaves one loop iteration unrolled as raw symbols
    // (e.g. R^24 followed by the five symbols of R must become R^25).
    std::vector<RegexPtr> out;

    // Push with cascading merges: fold equal adjacent units, and let a
    // Repeat absorb a spelled-out copy of its own body from the tail —
    // Sequitur's rule utility often leaves one loop iteration unrolled
    // (possibly split across several elements), and each absorption can
    // enable the next.
    auto push_merged = [&out](RegexPtr e) {
        for (;;) {
            if (!out.empty() &&
                equivalent(unitOf(out.back()), unitOf(e))) {
                uint64_t total = countOf(out.back()) + countOf(e);
                RegexPtr unit = unitOf(out.back());
                out.pop_back();
                e = repeat(std::move(unit), total);
                continue;
            }
            if (e->kind() == Kind::Repeat) {
                auto want = e->body()->expand();
                if (want.size() > 1) {
                    size_t j = backwardSpan(out, want);
                    if (j != SIZE_MAX) {
                        out.resize(j);
                        e = repeat(e->body(), e->count() + 1);
                        continue;
                    }
                }
            }
            break;
        }
        out.push_back(std::move(e));
    };

    size_t i = 0;
    while (i < flat.size()) {
        // A trailing Repeat absorbs a spelled-out body that follows it.
        if (!out.empty() && out.back()->kind() == Kind::Repeat) {
            auto want = out.back()->body()->expand();
            if (want.size() > 1) {
                size_t j = forwardSpan(flat, i, want);
                if (j != 0) {
                    RegexPtr grown = repeat(out.back()->body(),
                                            out.back()->count() + 1);
                    out.pop_back();
                    push_merged(std::move(grown));
                    i = j;
                    continue;
                }
            }
        }
        push_merged(flat[i]);
        ++i;
    }
    flat = std::move(out);

    if (flat.empty())
        return nullptr;
    if (flat.size() == 1)
        return flat.front();

    // Whole-sequence periodicity, e.g. (a b a b) -> (a b)^2, which the
    // adjacent merge alone cannot find.
    size_t k = wholePeriodicity(flat);
    if (k > 1) {
        std::vector<RegexPtr> unit(flat.begin(),
                                   flat.begin() +
                                       static_cast<long>(flat.size() / k));
        return repeat(concat(std::move(unit)), k);
    }

    auto node = std::shared_ptr<Regex>(new Regex());
    node->nodeKind = Kind::Concat;
    node->subParts = std::move(flat);
    return node;
}

bool
Regex::equals(const Regex &other) const
{
    if (nodeKind != other.nodeKind)
        return false;
    switch (nodeKind) {
      case Kind::Symbol:
        return sym == other.sym;
      case Kind::Repeat:
        return repeatCount == other.repeatCount &&
               repeatBody->equals(*other.repeatBody);
      case Kind::Concat:
        if (subParts.size() != other.subParts.size())
            return false;
        for (size_t i = 0; i < subParts.size(); ++i) {
            if (!subParts[i]->equals(*other.subParts[i]))
                return false;
        }
        return true;
    }
    return false;
}

uint64_t
Regex::expandedLength() const
{
    switch (nodeKind) {
      case Kind::Symbol:
        return 1;
      case Kind::Repeat:
        return repeatCount * repeatBody->expandedLength();
      case Kind::Concat: {
        uint64_t total = 0;
        for (const auto &p : subParts)
            total += p->expandedLength();
        return total;
      }
    }
    return 0;
}

namespace {

void
expandInto(const Regex &r, std::vector<uint32_t> &out)
{
    switch (r.kind()) {
      case Regex::Kind::Symbol:
        out.push_back(r.symbolId());
        break;
      case Regex::Kind::Repeat:
        for (uint64_t i = 0; i < r.count(); ++i)
            expandInto(*r.body(), out);
        break;
      case Regex::Kind::Concat:
        for (const auto &p : r.parts())
            expandInto(*p, out);
        break;
    }
}

} // namespace

std::vector<uint32_t>
Regex::expand() const
{
    std::vector<uint32_t> out;
    expandInto(*this, out);
    return out;
}

std::string
Regex::toString() const
{
    switch (nodeKind) {
      case Kind::Symbol:
        return std::to_string(sym);
      case Kind::Repeat: {
        std::string inner = repeatBody->toString();
        if (repeatBody->kind() != Kind::Symbol)
            inner = "(" + inner + ")";
        return inner + "^" + std::to_string(repeatCount);
      }
      case Kind::Concat: {
        std::string out;
        for (size_t i = 0; i < subParts.size(); ++i) {
            if (i)
                out += " ";
            const auto &p = subParts[i];
            if (p->kind() == Kind::Concat)
                out += "(" + p->toString() + ")";
            else
                out += p->toString();
        }
        return out;
      }
    }
    return "";
}

size_t
Regex::nodeCountRecursive() const
{
    size_t n = 1;
    if (nodeKind == Kind::Concat) {
        for (const auto &p : subParts)
            n += p->nodeCountRecursive();
    } else if (nodeKind == Kind::Repeat) {
        n += repeatBody->nodeCountRecursive();
    }
    return n;
}

} // namespace lpp::grammar
