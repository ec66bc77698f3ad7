/**
 * @file
 * Regular-expression trees over phase identifiers.
 *
 * The paper's hierarchy step converts the Sequitur grammar of a training
 * run's phase sequence into a regular expression whose Repeat nodes are
 * the composite phases (e.g. a Tomcatv time step = five leaf phases
 * repeated N times). Regexes here are concrete: Symbol, Concat, and
 * fixed-count Repeat (no alternation is needed because a training run is
 * a single string; at prediction time Repeat counts are treated as
 * unbounded loops).
 */

#ifndef LPP_GRAMMAR_REGEX_HPP
#define LPP_GRAMMAR_REGEX_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lpp::grammar {

class Regex;

/** Shared immutable regex node. */
using RegexPtr = std::shared_ptr<const Regex>;

/**
 * Immutable regular-expression node. Construct through the static
 * factories, which canonicalize: concat flattens nested concats and
 * merges adjacent equivalent subexpressions into repetitions, and also
 * recognizes whole-sequence periodicity.
 */
class Regex
{
  public:
    enum class Kind
    {
        Symbol, //!< one leaf phase id
        Concat, //!< juxtaposition of parts
        Repeat, //!< body repeated `count` times (count >= 1)
    };

    /** @return a leaf-symbol node. */
    static RegexPtr symbol(uint32_t id);

    /**
     * @return the canonical concatenation of `parts`; single-element
     * concats collapse and adjacent equivalent parts merge into Repeats.
     */
    static RegexPtr concat(std::vector<RegexPtr> parts);

    /** @return `body` repeated `count` times (nested repeats merge). */
    static RegexPtr repeat(RegexPtr body, uint64_t count);

    /** @return the node kind. */
    Kind kind() const { return nodeKind; }

    /** @return the leaf id (Symbol nodes only). */
    uint32_t symbolId() const { return sym; }

    /** @return the sub-parts (Concat nodes only). */
    const std::vector<RegexPtr> &parts() const { return subParts; }

    /** @return the repeated body (Repeat nodes only). */
    const RegexPtr &body() const { return repeatBody; }

    /** @return the repeat count (Repeat nodes only). */
    uint64_t count() const { return repeatCount; }

    /** Structural equivalence (the paper's adjacent-merge test). */
    bool equals(const Regex &other) const;

    /** @return the number of leaf symbols after full expansion. */
    uint64_t expandedLength() const;

    /** @return the fully expanded symbol string. */
    std::vector<uint32_t> expand() const;

    /** @return rendering like "(0 1 2 3 4)^25". */
    std::string toString() const;

    /** @return number of nodes in this tree. */
    size_t nodeCountRecursive() const;

  private:
    Regex() = default;

    Kind nodeKind = Kind::Symbol;
    uint32_t sym = 0;
    std::vector<RegexPtr> subParts;
    RegexPtr repeatBody;
    uint64_t repeatCount = 0;
};

} // namespace lpp::grammar

#endif // LPP_GRAMMAR_REGEX_HPP
