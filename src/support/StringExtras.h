//===- support/StringExtras.h - Small string helpers ------------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String utilities shared by the front ends and code generators: identifier
/// checks, case conversion, joining, and C string-literal escaping.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_SUPPORT_STRINGEXTRAS_H
#define FLICK_SUPPORT_STRINGEXTRAS_H

#include <string>
#include <string_view>
#include <vector>

namespace flick {

/// Returns true if \p S is a valid C identifier.
bool isCIdentifier(const std::string &S);

/// ASCII-uppercases \p S.
std::string toUpper(const std::string &S);

/// ASCII-lowercases \p S.
std::string toLower(const std::string &S);

/// Joins \p Parts with \p Sep between elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Escapes \p S for inclusion inside a C string literal (no quotes added).
std::string escapeCString(std::string_view S);

/// Replaces every character that cannot appear in a C identifier with '_'.
std::string sanitizeIdentifier(const std::string &S);

/// Splits \p S on \p Sep; empty fields are preserved.
std::vector<std::string> split(const std::string &S, char Sep);

/// Returns true if \p S starts with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Returns true if \p S ends with \p Suffix.
bool endsWith(const std::string &S, const std::string &Suffix);

} // namespace flick

#endif // FLICK_SUPPORT_STRINGEXTRAS_H
