/**
 * @file
 * Diagnostic labels that cost nothing until someone reads them.
 *
 * Pool blocks, kernels and DMA commands carry a human-readable tag
 * ("fmap:12", "fwd:conv1_1", "evict:VGG-16 (64)") that only an OOM
 * report, a layout dump, a kernel/copy log or a trace ever prints. A
 * Label holds the pieces of such a tag instead of the string: a static
 * prefix plus either a decimal index or a view of a name that outlives
 * the label (a layer name, Network::name()). Building, copying and
 * storing one never allocates; str() / formatTo() render it where a
 * person reads it.
 *
 * Lifetime rule: the prefix must be a string literal (or otherwise
 * outlive every copy), and a named label's name must outlive every
 * copy. Naming a temporary std::string does not compile.
 */

#ifndef VDNN_COMMON_LABEL_HH
#define VDNN_COMMON_LABEL_HH

#include <cstdint>
#include <string>

namespace vdnn
{

class Label
{
  public:
    /** The empty label (renders as ""). */
    constexpr Label() = default;

    /** A static label: @p prefix alone, e.g. a string literal. */
    constexpr Label(const char *prefix) : pre(prefix) {}

    /** @p prefix followed by @p index in decimal ("fmap:12"). */
    static constexpr Label
    indexed(const char *prefix, int index)
    {
        Label l(prefix);
        l.kind = Kind::Indexed;
        l.num = index;
        return l;
    }

    /** @p prefix followed by @p name, which must outlive the label. */
    static Label
    named(const char *prefix, const std::string &name)
    {
        Label l(prefix);
        l.kind = Kind::Named;
        l.nameData = name.data();
        l.num = std::int32_t(name.size());
        return l;
    }
    static Label named(const char *prefix, std::string &&name) = delete;

    /** True when the label renders as the empty string. */
    bool empty() const
    {
        return pre[0] == '\0' && (kind == Kind::Prefix ||
                                  (kind == Kind::Named && num == 0));
    }

    /** Render the label. */
    std::string str() const;

    /** Render the label into @p out, replacing its contents (the
     *  string's capacity is reused). */
    void formatTo(std::string &out) const;

  private:
    enum class Kind : std::uint8_t { Prefix, Indexed, Named };

    const char *pre = "";
    /** Named: the name's characters (num of them). */
    const char *nameData = nullptr;
    /** Indexed: the index. Named: the name's length. */
    std::int32_t num = 0;
    Kind kind = Kind::Prefix;
};

} // namespace vdnn

#endif // VDNN_COMMON_LABEL_HH
