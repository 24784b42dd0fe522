#include "common/label.hh"

#include <charconv>

namespace vdnn
{

std::string
Label::str() const
{
    std::string out;
    formatTo(out);
    return out;
}

void
Label::formatTo(std::string &out) const
{
    out.assign(pre);
    switch (kind) {
      case Kind::Prefix:
        break;
      case Kind::Indexed: {
        char digits[16];
        auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), num);
        (void)ec; // an int32 always fits
        out.append(digits, end);
        break;
      }
      case Kind::Named:
        out.append(nameData, std::size_t(num));
        break;
    }
}

} // namespace vdnn
