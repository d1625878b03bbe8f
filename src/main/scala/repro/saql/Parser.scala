package repro.saql

import Ast._

/** Recursive-descent parser for SAQL.
  *
  * Accepts the exact syntax of the paper's Queries 1–4 (rule-based,
  * time-series, invariant-based, outlier-based) and rejects malformed input
  * with positioned errors. Clause order follows the paper:
  *
  * {{{
  * query   := global* pattern+ with? state? invariant? cluster? alert? return
  * pattern := entity ops entity 'as' IDENT ('#' 'time' '(' N unit ')')?
  * entity  := ('proc'|'file'|'ip') IDENT ('[' constraints ']')?
  * expr    := primary (op primary)*  with op levels, loosest first: '||', '&&',
  *            cmp, 'union'|'diff', '+'|'-', '*'|'/'; left-associative, but one cmp
  * cmp     := '==' | '!=' | '<' | '>' | '<=' | '>='   ('=' is not an operator)
  * }}}
  */
object Parser {

  def parse(src: String, name: String = "query"): SaqlQuery =
    new Parser(src, Lexer.tokenize(src), name).parseQuery()

  /** Parse "DBSCAN(100000, 5)" into (method, args); `None` unless the
    * parenthesised args are numbers.
    */
  private[saql] def parseMethod(s: String): Option[(String, Seq[Double])] = {
    val open = s.indexOf('(')
    if (open < 0) Some((s.trim, Nil))
    else if (!s.trim.endsWith(")")) None
    else {
      val body = s.substring(open + 1, s.lastIndexOf(')'))
      val args = body.split(',').toSeq.map(_.trim).filter(_.nonEmpty).map(_.toDoubleOption)
      Option.when(args.forall(_.isDefined))((s.substring(0, open).trim, args.flatten))
    }
  }
}

private final class Parser(src: String, toks: Vector[Token], queryName: String) {
  import Token._

  private var i = 0
  private def peek: Token = toks(i)
  private def peek2: Token = toks(math.min(i + 1, toks.size - 1))
  private def next(): Token = { val t = toks(i); i += 1; t }
  private def fail(msg: String): Nothing = throw SaqlParseException(msg, src, peek.pos)

  private def isSym(t: Token, s: String): Boolean = t match {
    case Sym(`s`, _) => true; case _ => false
  }
  private def isIdent(t: Token, s: String): Boolean = t match {
    case Ident(`s`, _) => true; case _ => false
  }
  /** Consume the symbol `s` or keyword `k` if it is next. */
  private def accept(s: String): Boolean = isSym(peek, s) && { i += 1; true }
  private def acceptKeyword(k: String): Boolean = isIdent(peek, k) && { i += 1; true }
  private def expectSym(s: String): Unit =
    if (!accept(s)) fail(s"expected '$s' but found '${peek.text}'")
  private def expectKeyword(k: String): Unit =
    if (!acceptKeyword(k)) fail(s"expected '$k' but found '${peek.text}'")
  private def expectIdent(): String = peek match {
    case Ident(t, _) => i += 1; t
    case t           => fail(s"expected identifier but found '${t.text}'")
  }
  private def expectInt(what: String): Int = peek match {
    case Num(s, _) if s.toIntOption.isDefined => i += 1; s.toInt
    case t => fail(s"expected $what (an integer), found '${t.text}'")
  }
  /** One or more `item`s separated by the symbol `sep`. */
  private def sepBy[A](sep: String)(item: => A): Seq[A] = {
    val out = Vector.newBuilder[A]
    out += item
    while (accept(sep)) out += item
    out.result()
  }

  private val kinds = Seq(ProcKind, FileKind, IpKind).map(k => k.keyword -> k).toMap
  private val cmpOps = Set("=", "==", "!=", "<", ">", "<=", ">=")

  /** Binary operators, loosest first, and whether a level chains
    * (left-associatively); a comparison does not, and `=` is not one.
    */
  private val levels: Vector[(Set[String], Boolean)] = Vector(
    Set("||") -> true, Set("&&") -> true, (cmpOps - "=") -> false,
    Set("union", "diff") -> true, Set("+", "-") -> true, Set("*", "/") -> true)

  /** Parentheses and `|…|` nest at most this deep in one expression. Each
    * level costs several recursive calls, so a much deeper one would
    * overflow the stack instead of failing at a token.
    */
  private val maxNesting = 100
  private var nesting = 0

  // State/invariant names become known as their blocks are parsed, so the
  // expression parser can resolve `ss[0].x` vs `i.dstip` without ambiguity.
  private var stateName: Option[String] = None
  private var invVarName: Option[String] = None

  // ------------------------------------------------------------------ query

  def parseQuery(): SaqlQuery = {
    val globals = parseGlobals()
    val patterns = Vector.newBuilder[EventPattern]
    while (kinds.contains(peek.text) && peek.isInstanceOf[Ident]) {
      patterns += parsePattern()
    }
    val pats = patterns.result()
    if (pats.isEmpty) fail("query must declare at least one event pattern")

    val temporal  = Option.when(acceptKeyword("with"))(sepBy("->")(expectIdent()))
    val state     = Option.when(acceptKeyword("state"))(parseState())
    val invariant = Option.when(acceptKeyword("invariant"))(parseInvariant())
    val cluster   = Option.when(isIdent(peek, "cluster") && isSym(peek2, "(")) { i += 2; parseCluster() }
    val alert     = Option.when(acceptKeyword("alert"))(parseExpr())
    val ret       = parseReturn()
    peek match {
      case Eof(_) => ()
      case t      => fail(s"unexpected trailing input '${t.text}'")
    }
    SaqlQuery(queryName, globals, pats, temporal, state, invariant, cluster,
              alert, ret)
  }

  /** `agentid = 5` lines before the first pattern. */
  private def parseGlobals(): Seq[GlobalConstraint] = {
    val out = Vector.newBuilder[GlobalConstraint]
    while (peek.isInstanceOf[Ident] && !kinds.contains(peek.text) &&
           peek2.isInstanceOf[Sym] && cmpOps.contains(peek2.text)) {
      out += GlobalConstraint(expectIdent(), parseCmpOp(), parseValue())
    }
    out.result()
  }

  /** A constraint's comparison operator; `==` is read as `=`. */
  private def parseCmpOp(): String = peek match {
    case Sym(o, _) if cmpOps.contains(o) => i += 1; if (o == "==") "=" else o
    case t => fail(s"expected comparison op but found '${t.text}'")
  }

  private def parseValue(): String = peek match {
    case _: Str | _: Num | _: Ident => next().text
    case t                          => fail(s"expected a value but found '${t.text}'")
  }

  // --------------------------------------------------------------- patterns

  private def parsePattern(): EventPattern = {
    val subj = parseEntity()
    val ops  = sepBy("||")(expectIdent())
    val obj  = parseEntity()
    expectKeyword("as")
    val alias  = expectIdent()
    val window = Option.when(accept("#"))(parseWindow())
    EventPattern(subj, ops, obj, alias, window)
  }

  private def parseEntity(): EntityDecl = {
    val kind = kinds.getOrElse(peek.text,
      fail(s"expected entity kind (proc/file/ip) but found '${peek.text}'"))
    i += 1
    val name  = expectIdent()
    val preds = if (accept("[")) parsePreds(kind) else Nil
    EntityDecl(kind, name, preds)
  }

  /** `["%cmd.exe"]` (default-attribute LIKE) or `[dstip="x", port=443]`. */
  private def parsePreds(kind: EntityKind): Seq[AttrPredicate] = {
    val out = peek match {
      case Str(s, _) => i += 1; Seq(AttrPredicate(kind.defaultAttr, "=", s))
      case _         => sepBy(",")(AttrPredicate(expectIdent(), parseCmpOp(), parseValue()))
    }
    expectSym("]")
    out
  }

  /** `time(10 min)` or `time(10 min, 5 min)` (length, slide), after `#`. */
  private def parseWindow(): WindowSpec = {
    expectKeyword("time"); expectSym("(")
    val len = parseDuration()
    val slide = if (accept(",")) parseDuration() else len
    expectSym(")")
    WindowSpec(len, slide)
  }

  /** A positive duration in ms; zero or below 1 ms fails at its number. */
  private def parseDuration(): Long = {
    val at = i
    val n = peek match {
      case t: Num => i += 1; t.value
      case t      => fail(s"expected a number but found '${t.text}'")
    }
    val unit = expectIdent()
    val ms = unit match {
      case "ms"                               => 1L
      case "s" | "sec" | "second" | "seconds" => 1000L
      case "min" | "minute" | "minutes"       => 60_000L
      case "h" | "hour" | "hours"             => 3_600_000L
      case "day" | "days"                     => 86_400_000L
      case u                                  => i -= 1; fail(s"unknown time unit '$u'")
    }
    val d = (n * ms).toLong
    if (d <= 0) { i = at; fail(s"window length and slide must be at least 1 ms, found '${toks(at).text} $unit'") }
    d
  }

  // ----------------------------------------------------------------- state

  /** `[k] ss { name := fn(ref) ... } group by ref, ...`, after `state`. */
  private def parseState(): StateBlock = {
    val hist = if (accept("[")) {
      val n = expectInt("window-history count")
      expectSym("]"); n
    } else 1
    val name = expectIdent()
    stateName = Some(name)
    expectSym("{")
    val defs = Vector.newBuilder[StateDef]
    while (!accept("}")) {
      val dn = expectIdent()
      expectSym(":=")
      val fn = expectIdent()
      expectSym("(")
      val arg = parseFieldRef()
      expectSym(")")
      defs += StateDef(dn, fn, arg)
    }
    expectKeyword("group"); expectKeyword("by")
    StateBlock(hist, name, defs.result(), sepBy(",")(parseFieldRef()))
  }

  private def parseFieldRef(): FieldRef = {
    val v = expectIdent()
    FieldRef(v, Option.when(accept("."))(expectIdent()))
  }

  // ------------------------------------------------------------- invariant

  /** `[n][offline] { a := init  a = update }`, after `invariant`. */
  private def parseInvariant(): InvariantBlock = {
    expectSym("[")
    val train = expectInt("training-window count")
    expectSym("]")
    val offline = if (accept("[")) {
      val m = expectIdent(); expectSym("]")
      m match {
        case "offline" => true
        case "online"  => false
        case o         => fail(s"unknown invariant mode '$o'")
      }
    } else true
    expectSym("{")
    val v1 = expectIdent()
    expectSym(":=")
    invVarName = Some(v1)
    val init = parseExpr()
    val v2 = expectIdent()
    if (v2 != v1) fail(s"invariant update must assign '$v1' but assigns '$v2'")
    expectSym("=")
    val update = parseExpr()
    expectSym("}")
    InvariantBlock(train, offline, v1, init, update)
  }

  // --------------------------------------------------------------- cluster

  /** `points=all(...), distance="ed", method="DBSCAN(e, n)")`, after `cluster(`. */
  private def parseCluster(): ClusterBlock = {
    expectKeyword("points"); expectSym("=")
    expectKeyword("all"); expectSym("(")
    val pts = sepBy(",")(parseFieldRef())
    expectSym(")")
    expectSym(",")
    expectKeyword("distance"); expectSym("=")
    val dist = peek match {
      case Str(s, _) => i += 1; s
      case t         => fail(s"expected distance string, found '${t.text}'")
    }
    expectSym(",")
    expectKeyword("method"); expectSym("=")
    val (m, args) = peek match {
      case Str(s, _) => Parser.parseMethod(s).getOrElse(
        fail(s"malformed method '$s': expected NAME(number, ...)"))
      case t => fail(s"expected method string, found '${t.text}'")
    }
    i += 1
    expectSym(")")
    ClusterBlock(pts, dist, m, args)
  }

  // ---------------------------------------------------------------- return

  private def parseReturn(): ReturnStmt = {
    expectKeyword("return")
    val distinct = acceptKeyword("distinct")
    ReturnStmt(distinct, sepBy(",")(parseExpr()))
  }

  // ----------------------------------------------------------- expressions

  /** An expression whose binary operators are those of `levels(level)` or
    * tighter. A quoted "+" is a string, not an operator.
    */
  private def parseExpr(level: Int = 0): Expr =
    if (level == levels.size) parsePrimary()
    else {
      val (ops, chains) = levels(level)
      var l = parseExpr(level + 1)
      var more = true
      while (more && ops.contains(peek.text) && !peek.isInstanceOf[Str]) {
        l = Bin(next().text, l, parseExpr(level + 1))
        more = chains
      }
      l
    }

  /** The expression after the opening token that is next, up to `close`;
    * past [[maxNesting]] levels, a parse error at the opening token.
    */
  private def nested(close: String): Expr = {
    if (nesting == maxNesting) fail(s"expressions nest at most $maxNesting parentheses or |…| deep")
    nesting += 1; i += 1
    val e = parseExpr(); expectSym(close)
    nesting -= 1
    e
  }

  private def parsePrimary(): Expr = peek match {
    case t: Num => i += 1; NumLit(t.value)
    case Str(s, _) => i += 1; StrLit(s)
    case Sym("(", _) => nested(")")
    case Sym("|", _) => SetCard(nested("|"))
    case Ident("empty_set", _) => i += 1; EmptySet
    case Ident("cluster", _) if isSym(peek2, ".") =>
      i += 2
      expectKeyword("outlier")
      ClusterOutlier
    case Ident(name, _) =>
      i += 1
      if (accept("[")) { // ss[0].field
        val idx = expectInt("state index")
        expectSym("]"); expectSym(".")
        StateRef(name, idx, expectIdent())
      } else if (accept(".")) {
        val field = expectIdent()
        if (stateName.contains(name)) StateRef(name, 0, field)
        else AttrRef(FieldRef(name, Some(field)))
      } else if (invVarName.contains(name)) InvRef(name)
      else if (stateName.contains(name)) fail(s"state '$name' used without a field")
      else AttrRef(FieldRef(name, None))
    case t => fail(s"expected an expression but found '${t.text}'")
  }
}
