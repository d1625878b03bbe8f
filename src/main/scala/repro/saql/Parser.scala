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
  private def expectSym(s: String): Unit =
    if (isSym(peek, s)) i += 1 else fail(s"expected '$s' but found '${peek.text}'")
  private def expectIdent(): String = next() match {
    case Ident(t, _) => t
    case t           => i -= 1; fail(s"expected identifier but found '${t.text}'")
  }
  private def expectKeyword(k: String): Unit =
    if (isIdent(peek, k)) i += 1 else fail(s"expected '$k' but found '${peek.text}'")
  private def expectInt(what: String): Int = peek match {
    case Num(s, _) if s.toIntOption.isDefined => i += 1; s.toInt
    case t => fail(s"expected $what (an integer), found '${t.text}'")
  }

  private val kinds = Map("proc" -> ProcKind, "file" -> FileKind, "ip" -> IpKind)
  private val cmpOps = Set("=", "==", "!=", "<", ">", "<=", ">=")

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

    val temporal  = if (isIdent(peek, "with")) Some(parseWith()) else None
    val state     = if (isIdent(peek, "state")) Some(parseState()) else None
    val invariant = if (isIdent(peek, "invariant")) Some(parseInvariant()) else None
    val cluster   = if (isIdent(peek, "cluster") && isSym(peek2, "(")) Some(parseCluster()) else None
    val alert     = if (isIdent(peek, "alert")) { i += 1; Some(parseExpr()) } else None
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
      val attr = expectIdent()
      val op   = next().text
      val v    = parseValue()
      out += GlobalConstraint(attr, if (op == "==") "=" else op, v)
    }
    out.result()
  }

  private def parseValue(): String = next() match {
    case Str(s, _)   => s
    case Num(s, _)   => s
    case Ident(s, _) => s
    case t           => i -= 1; fail(s"expected a value but found '${t.text}'")
  }

  // --------------------------------------------------------------- patterns

  private def parsePattern(): EventPattern = {
    val subj = parseEntity()
    val ops  = Vector.newBuilder[String]
    ops += expectIdent()
    while (isSym(peek, "||")) { i += 1; ops += expectIdent() }
    val obj = parseEntity()
    expectKeyword("as")
    val alias  = expectIdent()
    val window = if (isSym(peek, "#")) Some(parseWindow()) else None
    EventPattern(subj, ops.result(), obj, alias, window)
  }

  private def parseEntity(): EntityDecl = {
    val kind = kinds.getOrElse(peek.text,
      fail(s"expected entity kind (proc/file/ip) but found '${peek.text}'"))
    i += 1
    val name  = expectIdent()
    val preds = if (isSym(peek, "[")) parsePreds(kind) else Nil
    EntityDecl(kind, name, preds)
  }

  /** `["%cmd.exe"]` (default-attribute LIKE) or `[dstip="x", port=443]`. */
  private def parsePreds(kind: EntityKind): Seq[AttrPredicate] = {
    expectSym("[")
    val out = Vector.newBuilder[AttrPredicate]
    peek match {
      case Str(s, _) => i += 1; out += AttrPredicate(kind.defaultAttr, "=", s)
      case _ =>
        var done = false
        while (!done) {
          val attr = expectIdent()
          val op   = next() match {
            case Sym(o, _) if cmpOps.contains(o) => if (o == "==") "=" else o
            case t => i -= 1; fail(s"expected comparison op but found '${t.text}'")
          }
          out += AttrPredicate(attr, op, parseValue())
          if (isSym(peek, ",")) i += 1 else done = true
        }
    }
    expectSym("]")
    out.result()
  }

  /** `#time(10 min)` or `#time(10 min, 5 min)` (length, slide). */
  private def parseWindow(): WindowSpec = {
    expectSym("#"); expectKeyword("time"); expectSym("(")
    val len = parseDuration()
    val slide = if (isSym(peek, ",")) { i += 1; parseDuration() } else len
    expectSym(")")
    WindowSpec(len, slide)
  }

  /** A positive duration in ms; zero or below 1 ms fails at its number. */
  private def parseDuration(): Long = {
    val at = i
    val n = next() match {
      case Num(s, _) => s.toDouble
      case t         => i -= 1; fail(s"expected a number but found '${t.text}'")
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

  private def parseWith(): Seq[String] = {
    expectKeyword("with")
    val out = Vector.newBuilder[String]
    out += expectIdent()
    while (isSym(peek, "->")) { i += 1; out += expectIdent() }
    out.result()
  }

  // ----------------------------------------------------------------- state

  private def parseState(): StateBlock = {
    expectKeyword("state")
    val hist = if (isSym(peek, "[")) {
      i += 1
      val n = expectInt("window-history count")
      expectSym("]"); n
    } else 1
    val name = expectIdent()
    stateName = Some(name)
    expectSym("{")
    val defs = Vector.newBuilder[StateDef]
    while (!isSym(peek, "}")) {
      val dn = expectIdent()
      expectSym(":=")
      val fn = expectIdent()
      expectSym("(")
      val arg = parseFieldRef()
      expectSym(")")
      defs += StateDef(dn, fn, arg)
    }
    expectSym("}")
    expectKeyword("group"); expectKeyword("by")
    val keys = Vector.newBuilder[FieldRef]
    keys += parseFieldRef()
    while (isSym(peek, ",")) { i += 1; keys += parseFieldRef() }
    StateBlock(hist, name, defs.result(), keys.result())
  }

  private def parseFieldRef(): FieldRef = {
    val v = expectIdent()
    if (isSym(peek, ".")) { i += 1; FieldRef(v, Some(expectIdent())) }
    else FieldRef(v, None)
  }

  // ------------------------------------------------------------- invariant

  private def parseInvariant(): InvariantBlock = {
    expectKeyword("invariant")
    expectSym("[")
    val train = expectInt("training-window count")
    expectSym("]")
    val offline = if (isSym(peek, "[")) {
      i += 1; val m = expectIdent(); expectSym("]")
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

  private def parseCluster(): ClusterBlock = {
    expectKeyword("cluster"); expectSym("(")
    expectKeyword("points"); expectSym("=")
    expectKeyword("all"); expectSym("(")
    val pts = Vector.newBuilder[FieldRef]
    pts += parseFieldRef()
    while (isSym(peek, ",")) { i += 1; pts += parseFieldRef() }
    expectSym(")")
    expectSym(",")
    expectKeyword("distance"); expectSym("=")
    val dist = next() match {
      case Str(s, _) => s
      case t         => i -= 1; fail(s"expected distance string, found '${t.text}'")
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
    ClusterBlock(pts.result(), dist, m, args)
  }

  // ---------------------------------------------------------------- return

  private def parseReturn(): ReturnStmt = {
    expectKeyword("return")
    val distinct = if (isIdent(peek, "distinct")) { i += 1; true } else false
    val items = Vector.newBuilder[Expr]
    items += parseExpr()
    while (isSym(peek, ",")) { i += 1; items += parseExpr() }
    ReturnStmt(distinct, items.result())
  }

  // ----------------------------------------------------------- expressions

  private def parseExpr(): Expr = parseOr()

  private def parseOr(): Expr = {
    var l = parseAnd()
    while (isSym(peek, "||")) { i += 1; l = Bin("||", l, parseAnd()) }
    l
  }

  private def parseAnd(): Expr = {
    var l = parseCmp()
    while (isSym(peek, "&&")) { i += 1; l = Bin("&&", l, parseCmp()) }
    l
  }

  private def parseCmp(): Expr = {
    val l = parseSetOp()
    peek match {
      case Sym(op, _) if cmpOps.contains(op) && op != "=" =>
        i += 1; Bin(op, l, parseSetOp())
      case _ => l
    }
  }

  private def parseSetOp(): Expr = {
    var l = parseAdd()
    while (isIdent(peek, "union") || isIdent(peek, "diff")) {
      val op = next().text
      l = Bin(op, l, parseAdd())
    }
    l
  }

  private def parseAdd(): Expr = {
    var l = parseMul()
    while (isSym(peek, "+") || isSym(peek, "-")) {
      val op = next().text
      l = Bin(op, l, parseMul())
    }
    l
  }

  private def parseMul(): Expr = {
    var l = parsePrimary()
    while (isSym(peek, "*") || isSym(peek, "/")) {
      val op = next().text
      l = Bin(op, l, parsePrimary())
    }
    l
  }

  private def parsePrimary(): Expr = peek match {
    case Num(s, _) => i += 1; NumLit(s.toDouble)
    case Str(s, _) => i += 1; StrLit(s)
    case Sym("(", _) =>
      i += 1; val e = parseExpr(); expectSym(")"); e
    case Sym("|", _) =>
      i += 1; val e = parseExpr(); expectSym("|"); SetCard(e)
    case Ident("empty_set", _) => i += 1; EmptySet
    case Ident("cluster", _) if isSym(peek2, ".") =>
      i += 2
      expectKeyword("outlier")
      ClusterOutlier
    case Ident(name, _) =>
      i += 1
      if (isSym(peek, "[")) { // ss[0].field
        i += 1
        val idx = expectInt("state index")
        expectSym("]"); expectSym(".")
        StateRef(name, idx, expectIdent())
      } else if (isSym(peek, ".")) {
        i += 1
        val field = expectIdent()
        if (stateName.contains(name)) StateRef(name, 0, field)
        else AttrRef(FieldRef(name, Some(field)))
      } else if (invVarName.contains(name)) InvRef(name)
      else if (stateName.contains(name)) fail(s"state '$name' used without a field")
      else AttrRef(FieldRef(name, None))
    case t => fail(s"expected an expression but found '${t.text}'")
  }
}
