#ifndef CREW_COMMON_STRINGS_H_
#define CREW_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace crew {

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing spaces/tabs/CR/LF.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

}  // namespace crew

#endif  // CREW_COMMON_STRINGS_H_
