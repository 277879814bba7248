//===- support/CodeWriter.h - Indented text emission ------------*- C++ -*-===//
//
// Part of the Flick reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CodeWriter accumulates generated source text with indentation tracking.
/// The CAST pretty printer and the back ends emit all stub code through it.
///
//===----------------------------------------------------------------------===//

#ifndef FLICK_SUPPORT_CODEWRITER_H
#define FLICK_SUPPORT_CODEWRITER_H

#include <string>
#include <string_view>

namespace flick {

/// An append-only text buffer that understands indentation levels.
class CodeWriter {
public:
  explicit CodeWriter(unsigned IndentWidth = 2) : IndentWidth(IndentWidth) {}

  /// Appends raw text (no newline, no indentation applied mid-line).
  CodeWriter &print(std::string_view Text);

  /// Appends one full line at the current indentation.
  CodeWriter &line(std::string_view Text);

  /// Starts a line at the current indentation (unless one is already
  /// started) and returns the buffer, so a printer can append the line's
  /// text in place instead of building it in a temporary.  endLine()
  /// finishes the line.
  std::string &startLine() {
    beginLineIfNeeded();
    return Out;
  }

  /// Ends the current line.
  CodeWriter &endLine() {
    Out += '\n';
    AtLineStart = true;
    return *this;
  }

  /// Appends an empty line.
  CodeWriter &blank();

  /// Increases the indentation level by one step.
  CodeWriter &indent() {
    ++Level;
    return *this;
  }

  /// Decreases the indentation level by one step.
  CodeWriter &outdent();

  /// Convenience: `line(Head + " {")` then indent.
  CodeWriter &open(std::string_view Head);

  /// Convenience: outdent then `line("}" + Tail)`.
  CodeWriter &close(std::string_view Tail = "");

  const std::string &str() const { return Out; }
  std::string take() { return std::move(Out); }
  bool atLineStart() const { return AtLineStart; }

private:
  void beginLineIfNeeded();

  std::string Out;
  unsigned IndentWidth;
  unsigned Level = 0;
  bool AtLineStart = true;
};

} // namespace flick

#endif // FLICK_SUPPORT_CODEWRITER_H
