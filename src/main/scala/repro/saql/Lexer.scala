package repro.saql

/** Tokens produced by [[Lexer]]. Each carries its source position for
  * error reporting.
  */
sealed trait Token { def pos: Int; def text: String }
object Token {
  final case class Ident(text: String, pos: Int)  extends Token
  final case class Num(text: String, pos: Int)    extends Token { def value: Double = text.toDouble }
  final case class Str(text: String, pos: Int)    extends Token // unquoted content
  final case class Sym(text: String, pos: Int)    extends Token
  final case class Eof(pos: Int)                  extends Token { val text = "<eof>" }
}

/** Error with 1-based line/column derived from the source offset. */
final case class SaqlParseException(msg: String, src: String, pos: Int)
    extends RuntimeException({
      val upTo  = src.take(pos)
      val line  = upTo.count(_ == '\n') + 1
      val col   = pos - upTo.lastIndexOf('\n')
      s"SAQL parse error at line $line, col $col: $msg"
    })

/** Hand-written lexer for SAQL (the paper builds the language with ANTLR 4;
  * ANTLR is unavailable offline, so lexing is done by hand).
  *
  * Handles `//` line comments, quoted strings, numbers (ASCII digits, at
  * most one `.`), identifiers (including dotted later at parse level), and the
  * multi-char symbols `->`, `:=`, `==`, `!=`, `>=`, `<=`, `&&`, `||`.
  */
object Lexer {
  private val multi = Seq("->", ":=", "==", "!=", ">=", "<=", "&&", "||")
  private val single = "[]{}(),.|=<>+-*/#"
  // Not `Char.isDigit`, which holds for any Unicode digit: `toDouble` reads ASCII only.
  private def isDigit(c: Char): Boolean = c >= '0' && c <= '9'

  def tokenize(src: String): Vector[Token] = {
    val out = Vector.newBuilder[Token]
    var i = 0
    val n = src.length
    while (i < n) {
      val c = src(i)
      if (c.isWhitespace) i += 1
      else if (c == '/' && i + 1 < n && src(i + 1) == '/') {
        while (i < n && src(i) != '\n') i += 1
      } else if (c == '"') {
        val start = i; i += 1
        val sb = new StringBuilder
        while (i < n && src(i) != '"') { sb.append(src(i)); i += 1 }
        if (i >= n) throw SaqlParseException("unterminated string", src, start)
        i += 1
        out += Token.Str(sb.toString, start)
      } else if (isDigit(c)) {
        val start = i
        while (i < n && (isDigit(src(i)) || src(i) == '.')) i += 1
        val text = src.substring(start, i)
        if (text.count(_ == '.') > 1) throw SaqlParseException(s"malformed number '$text'", src, start)
        out += Token.Num(text, start)
      } else if (c.isLetter || c == '_') {
        val start = i
        while (i < n && (src(i).isLetterOrDigit || src(i) == '_')) i += 1
        out += Token.Ident(src.substring(start, i), start)
      } else {
        multi.find(m => src.startsWith(m, i)) match {
          case Some(m) => out += Token.Sym(m, i); i += m.length
          case None =>
            if (single.indexOf(c) >= 0) { out += Token.Sym(c.toString, i); i += 1 }
            else throw SaqlParseException(s"unexpected character '$c'", src, i)
        }
      }
    }
    out += Token.Eof(n)
    out.result()
  }
}
