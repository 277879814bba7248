//===- support/StringExtras.cpp - Small string helpers --------------------===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/StringExtras.h"
#include <cctype>

using namespace flick;

static bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}

static bool isIdentBody(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

bool flick::isCIdentifier(const std::string &S) {
  if (S.empty() || !isIdentStart(S[0]))
    return false;
  for (char C : S)
    if (!isIdentBody(C))
      return false;
  return true;
}

std::string flick::toUpper(const std::string &S) {
  std::string Out = S;
  for (char &C : Out)
    C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
  return Out;
}

std::string flick::toLower(const std::string &S) {
  std::string Out = S;
  for (char &C : Out)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return Out;
}

std::string flick::join(const std::vector<std::string> &Parts,
                        const std::string &Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string flick::escapeCString(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (std::isprint(static_cast<unsigned char>(C))) {
        Out += C;
      } else {
        static const char Hex[] = "0123456789abcdef";
        unsigned char U = static_cast<unsigned char>(C);
        Out += "\\x";
        Out += Hex[U >> 4];
        Out += Hex[U & 0xF];
      }
    }
  }
  return Out;
}

std::string flick::sanitizeIdentifier(const std::string &S) {
  std::string Out = S;
  for (char &C : Out)
    if (!isIdentBody(C))
      C = '_';
  if (Out.empty() || !isIdentStart(Out[0]))
    Out.insert(Out.begin(), '_');
  return Out;
}

std::vector<std::string> flick::split(const std::string &S, char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string::npos) {
      Out.push_back(S.substr(Start));
      return Out;
    }
    Out.push_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

bool flick::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() &&
         S.compare(0, Prefix.size(), Prefix) == 0;
}

bool flick::endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}
