package repro.saql

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import repro.core.Columns
import Ast._

/** Parses the paper's Queries 1–4 verbatim plus each clause in isolation. */
class ParserSpec extends AnyFunSuite {

  // ------------------------------------------------ the paper's Query 1

  private val query1 =
    """
      |agentid = 7 // SQL database server (obfuscated)
      |proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
      |proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
      |proc p4["%sbblv.exe"] read file f1 as evt3
      |proc p4 read || write ip i1[dstip="203.0.113.129"] as evt4
      |with evt1 -> evt2 -> evt3 -> evt4
      |return distinct p1, p2, p3, f1, p4, i1 // p1 -> p1.exe_name
      |""".stripMargin

  test("Query 1 (rule-based) parses") {
    val q = Parser.parse(query1, "q1")
    assert(q.modelType == RuleModel)
    assert(q.patterns.size == 4)
    assert(q.globals == Seq(GlobalConstraint("agentid", "=", "7")))
    assert(q.temporal.contains(Seq("evt1", "evt2", "evt3", "evt4")))
    assert(q.ret.distinct)
    assert(q.ret.items.size == 6)
  }

  test("Query 1: default-attribute constraint becomes LIKE-style predicate") {
    val q = Parser.parse(query1)
    assert(q.patterns.head.subj.preds ==
      Seq(AttrPredicate("exe_name", "=", "%cmd.exe")))
  }

  test("Query 1: op disjunction read || write") {
    val q = Parser.parse(query1)
    assert(q.patterns(3).ops == Seq("read", "write"))
  }

  test("Query 1: named-attribute constraint on ip") {
    val q = Parser.parse(query1)
    assert(q.patterns(3).obj.preds ==
      Seq(AttrPredicate("dstip", "=", "203.0.113.129")))
  }

  test("Query 1: shared variable f1 occurs in two patterns") {
    val q = Parser.parse(query1)
    assert(q.varOccurrences("f1").map(_._1) == Seq("evt2", "evt3"))
  }

  test("Query 1: variable kinds are consistent") {
    val q = Parser.parse(query1)
    assert(q.kindOf("p4").contains(ProcKind))
    assert(q.kindOf("f1").contains(FileKind))
    assert(q.kindOf("i1").contains(IpKind))
  }

  // ------------------------------------------------ the paper's Query 2

  private val query2 =
    """
      |proc p write ip i as evt #time(10 min)
      |state[3] ss {
      |  avg_amount := avg(evt.amount)
      |} group by p
      |alert (ss[0].avg_amount > (ss[0].avg_amount + ss[1].avg_amount + ss[2].avg_amount) / 3) && (ss[0].avg_amount > 10000)
      |return p, ss[0].avg_amount, ss[1].avg_amount, ss[2].avg_amount
      |""".stripMargin

  test("Query 2 (time-series) parses") {
    val q = Parser.parse(query2, "q2")
    assert(q.modelType == TimeSeriesModel)
    assert(q.state.get.history == 3)
    assert(q.state.get.name == "ss")
    assert(q.window.contains(WindowSpec(600000, 600000)))
  }

  test("Query 2: state definition avg(evt.amount)") {
    val q = Parser.parse(query2)
    assert(q.state.get.defs ==
      Seq(StateDef("avg_amount", "avg", FieldRef("evt", Some("amount")))))
  }

  test("Query 2: group by bare variable") {
    val q = Parser.parse(query2)
    assert(q.state.get.groupBy == Seq(FieldRef("p", None)))
  }

  test("Query 2: alert references ss[0..2]") {
    val q = Parser.parse(query2)
    val refs = collectStateRefs(q.alert.get)
    assert(refs.map(_.index).toSet == Set(0, 1, 2))
  }

  test("Query 2: return mixes attr and state refs") {
    val q = Parser.parse(query2)
    assert(q.ret.items.head == AttrRef(FieldRef("p", None)))
    assert(q.ret.items(1) == StateRef("ss", 0, "avg_amount"))
  }

  // ------------------------------------------------ the paper's Query 3

  private val query3 =
    """
      |proc p1["%apache.exe"] start proc p2 as evt #time(10 s)
      |state ss {
      |  set_proc := set(p2.exe_name)
      |} group by p1
      |invariant[10][offline] {
      |  a := empty_set // invariant init
      |  a = a union ss.set_proc // invariant update
      |}
      |alert |ss.set_proc diff a| > 0
      |return p1, ss.set_proc
      |""".stripMargin

  test("Query 3 (invariant-based) parses") {
    val q = Parser.parse(query3, "q3")
    assert(q.modelType == InvariantModel)
    val ib = q.invariant.get
    assert(ib.trainWindows == 10 && ib.offline && ib.varName == "a")
    assert(ib.init == EmptySet)
    assert(ib.update == Bin("union", InvRef("a"), StateRef("ss", 0, "set_proc")))
  }

  test("Query 3: implicit state[1] history") {
    assert(Parser.parse(query3).state.get.history == 1)
  }

  test("Query 3: 10-second window") {
    assert(Parser.parse(query3).window.contains(WindowSpec(10000, 10000)))
  }

  test("Query 3: set-cardinality alert over diff") {
    val q = Parser.parse(query3)
    assert(q.alert.get ==
      Bin(">", SetCard(Bin("diff", StateRef("ss", 0, "set_proc"), InvRef("a"))),
          NumLit(0)))
  }

  test("Query 3: bare ss.field is state index 0") {
    val q = Parser.parse(query3)
    assert(q.ret.items(1) == StateRef("ss", 0, "set_proc"))
  }

  // ------------------------------------------------ the paper's Query 4

  private val query4 =
    """
      |agentid = 7 // SQL database server (obfuscated)
      |proc p["%sqlservr.exe"] read || write ip i as evt #time(10 min)
      |state ss {
      |  amt := sum(evt.amount)
      |} group by i.dstip
      |cluster(points=all(ss.amt), distance="ed", method="DBSCAN(100000, 5)")
      |alert cluster.outlier && ss.amt > 1000000
      |return i.dstip, ss.amt
      |""".stripMargin

  test("Query 4 (outlier-based) parses") {
    val q = Parser.parse(query4, "q4")
    assert(q.modelType == OutlierModel)
    val cb = q.cluster.get
    assert(cb.points == Seq(FieldRef("ss", Some("amt"))))
    assert(cb.distance == "ed")
    assert(cb.method == "DBSCAN" && cb.args == Seq(100000.0, 5.0))
  }

  test("Query 4: group by dotted attribute") {
    assert(Parser.parse(query4).state.get.groupBy == Seq(FieldRef("i", Some("dstip"))))
  }

  test("Query 4: cluster.outlier in alert conjunction") {
    val q = Parser.parse(query4)
    assert(q.alert.get ==
      Bin("&&", ClusterOutlier, Bin(">", StateRef("ss", 0, "amt"), NumLit(1000000))))
  }

  // ------------------------------------------------ clause details

  test("window units: seconds, minutes, hours, ms") {
    def win(u: String): Long =
      Parser.parse(s"proc p start proc q as e #time(2 $u)\nreturn p")
        .window.get.lengthMs
    assert(win("s") == 2000 && win("min") == 120000 && win("hour") == 7200000 &&
           win("ms") == 2)
  }

  test("explicit slide: #time(10 min, 5 min)") {
    val q = Parser.parse("proc p start proc q as e #time(10 min, 5 min)\nreturn p")
    assert(q.window.contains(WindowSpec(600000, 300000)))
  }

  test("multiple global constraints") {
    val q = Parser.parse("agentid = 1\nagentid != 5\nproc p start proc q as e\nreturn p")
    assert(q.globals.size == 2 && q.globals(1).op == "!=")
  }

  test("multiple predicates in one bracket") {
    val q = Parser.parse(
      """proc p write ip i[dstip="1.2.3.4", dstport=443] as e
        |return p""".stripMargin)
    assert(q.patterns.head.obj.preds.size == 2)
    assert(q.patterns.head.obj.preds(1) == AttrPredicate("dstport", "=", "443"))
  }

  test("online invariant mode") {
    val q = Parser.parse(
      """proc p start proc q as e #time(10 s)
        |state ss { s := set(q.exe_name) } group by p
        |invariant[5][online] { a := empty_set
        |a = a union ss.s }
        |alert |ss.s diff a| > 0
        |return p""".stripMargin)
    assert(!q.invariant.get.offline)
  }

  test("return without distinct") {
    assert(!Parser.parse("proc p start proc q as e\nreturn p, q").ret.distinct)
  }

  test("arithmetic precedence: * binds tighter than +") {
    val q = Parser.parse(
      "proc p write ip i as e #time(1 min)\nstate ss { x := avg(e.amount) } group by p\n" +
      "alert ss.x > 1 + 2 * 3\nreturn p")
    assert(q.alert.get ==
      Bin(">", StateRef("ss", 0, "x"), Bin("+", NumLit(1), Bin("*", NumLit(2), NumLit(3)))))
  }

  test("precedence: levels group left, set ops sit between + and a comparison, which does not chain") {
    val prefix = "proc p write ip i as e #time(1 min)\nstate ss { x := avg(e.amount) } group by p\nalert "
    def alert(e: String): Expr = Parser.parse(prefix + e + "\nreturn p").alert.get
    val Seq(a, b, c) = Seq("a", "b", "c").map(v => AttrRef(FieldRef(v, None)))
    assert(alert("10 - 2 - 3") == Bin("-", Bin("-", NumLit(10), NumLit(2)), NumLit(3)))
    assert(alert("a / b / c") == Bin("/", Bin("/", a, b), c))
    assert(alert("a union b diff c") == Bin("diff", Bin("union", a, b), c))
    assert(alert("a diff b union c") == Bin("union", Bin("diff", a, b), c))
    assert(alert("a union b + c") == Bin("union", a, Bin("+", b, c)))
    assert(alert("a - b diff c") == Bin("diff", Bin("-", a, b), c))
    assert(alert("a union b > c") == Bin(">", Bin("union", a, b), c))
    assert(alert("a >= b diff c") == Bin(">=", a, Bin("diff", b, c)))
    assert(alert("a == b") == Bin("==", a, b))
    for ((e, at) <- Seq("a = b" -> "=", "1 < 2 < 3" -> "< 3")) {
      val err = intercept[SaqlParseException](alert(e))
      assert(err.pos == prefix.length + e.indexOf(at) && err.getMessage.contains("expected 'return'"),
        err.getMessage)
    }
  }

  test("&& binds tighter than ||") {
    val q = Parser.parse(
      "proc p write ip i as e #time(1 min)\nstate ss { x := avg(e.amount) } group by p\n" +
      "alert ss.x > 1 || ss.x < 0 && ss.x > 2\nreturn p")
    q.alert.get match {
      case Bin("||", _, Bin("&&", _, _)) => ()
      case other => fail(s"wrong precedence: $other")
    }
  }

  test("parenthesised expressions override precedence") {
    val q = Parser.parse(
      "proc p write ip i as e #time(1 min)\nstate ss { x := avg(e.amount) } group by p\n" +
      "alert (ss.x + 1) * 2 > 4\nreturn p")
    q.alert.get match {
      case Bin(">", Bin("*", Bin("+", _, _), NumLit(2)), NumLit(4)) => ()
      case other => fail(s"wrong structure: $other")
    }
  }

  // ------------------------------------------------ error reporting

  test("error: query without patterns") {
    val e = intercept[SaqlParseException](Parser.parse("return p"))
    assert(e.getMessage.contains("at least one event pattern"))
  }

  test("error: missing 'as' alias") {
    intercept[SaqlParseException](Parser.parse("proc p start proc q\nreturn p"))
  }

  test("error: missing return clause") {
    intercept[SaqlParseException](Parser.parse("proc p start proc q as e"))
  }

  test("error: bad time unit") {
    val e = intercept[SaqlParseException](
      Parser.parse("proc p start proc q as e #time(10 fortnight)\nreturn p"))
    assert(e.getMessage.contains("unknown time unit"))
  }

  test("error: invariant updating a different variable") {
    val e = intercept[SaqlParseException](Parser.parse(
      """proc p start proc q as e #time(10 s)
        |state ss { s := set(q.exe_name) } group by p
        |invariant[5][offline] { a := empty_set
        |b = a union ss.s }
        |alert |ss.s diff a| > 0
        |return p""".stripMargin))
    assert(e.getMessage.contains("must assign 'a'"))
  }

  test("error: trailing garbage after return") {
    val e = intercept[SaqlParseException](
      Parser.parse("proc p start proc q as e\nreturn p }"))
    assert(e.getMessage.contains("unexpected trailing input"))
  }

  test("error messages carry line numbers") {
    val e = intercept[SaqlParseException](
      Parser.parse("proc p start proc q as e\nreturn p ]"))
    assert(e.getMessage.contains("line 2"))
  }

  test("method string without args") {
    assert(Parser.parseMethod("KMEANS").contains(("KMEANS", Nil)))
  }

  test("method string with args and spaces") {
    assert(Parser.parseMethod(" DBSCAN ( 1.5 , 3 ) ").contains(("DBSCAN", Seq(1.5, 3.0))))
  }

  test("error: malformed numbers are positioned parse errors") {
    val stateful = "proc p write ip i as evt #time(10 min)\n"
    val cluster = stateful + "state ss { amt := sum(evt.amount) } group by p\n" +
      "cluster(points=all(ss.amt), distance=\"ed\", method=\""
    for ((src, message, line) <- Seq(
           ("proc p write ip i as evt #time(1.2.3 min)\nreturn p", "malformed number '1.2.3'", 1),
           (stateful + "state[2.5] ss { amt := sum(evt.amount) } group by p\nreturn p",
             "expected window-history count (an integer), found '2.5'", 2),
           (stateful + "state[2] ss { amt := sum(evt.amount) } group by p\nalert ss[0.5].amt > 0\nreturn p",
             "expected state index (an integer), found '0.5'", 3),
           (stateful + "state ss { s := set(p) } group by p\ninvariant[9999999999] { a := empty_set\na = a }\nreturn p",
             "expected training-window count (an integer), found '9999999999'", 3),
           (cluster + "DBSCAN(abc, 5)\")\nreturn p", "malformed method 'DBSCAN(abc, 5)'", 3),
           (cluster + "DBSCAN(1, 5\")\nreturn p", "malformed method 'DBSCAN(1, 5'", 3),
           ("proc p start proc q as e #time(10\u0663 s)\nreturn p", "unexpected character '\u0663'", 1))) {
      val e = intercept[SaqlParseException](Parser.parse(src))
      assert(e.getMessage.contains(message) && e.getMessage.contains(s"line $line,"), e.getMessage)
    }
  }

  test("error: a window length or slide below 1 ms, or an unknown unit, is a parse error at its token") {
    val line2 = "return p"
    for ((time, at) <- Seq("0 s" -> 0, "0.0001 s" -> 0, "10 s, 0 ms" -> 6, "10 s, 0.5 ms" -> 6)) {
      val src = s"proc p start proc q as e #time($time)\n$line2"
      val e = intercept[SaqlParseException](Parser.parse(src))
      assert(e.pos == src.indexOf("#time(") + 6 + at, e.getMessage)
      assert(e.getMessage.contains("window length and slide must be at least 1 ms"), e.getMessage)
    }
    assert(Parser.parse("proc p start proc q as e #time(1 ms, 0.001 s)\nreturn p").window
      .contains(WindowSpec(1L, 1L)))
    val unit = "proc p start proc q as e #time(10 fortnight)\nreturn p"
    assert(intercept[SaqlParseException](Parser.parse(unit)).pos == unit.indexOf("fortnight"))
  }

  test("error: an expression nested past 100 levels is a parse error at its opening token, not a stack overflow") {
    val head = "proc p write ip i as evt #time(10 min)\nstate ss { amt := sum(evt.amount) } group by p\nalert "
    // Each opening token is two characters, so the k-th (from 0) is at head.length + 2k.
    def alert(opens: Seq[String]): String =
      head + opens.map(_ + " ").mkString + "ss.amt" + opens.reverse.map(o => if (o == "(") " )" else " |").mkString +
        " > 0\nreturn p"
    for (depth <- Seq(101, 1000, 10000); open <- Seq("(", "|", "mixed")) {
      val opens = Seq.tabulate(depth)(k => if (open == "mixed") Seq("(", "|")(k % 2) else open)
      val src = alert(opens)
      val e = intercept[SaqlParseException](Parser.parse(src))
      assert(e.pos == head.length + 2 * 100 && e.getMessage.contains("nest at most 100"), (depth, open, e.getMessage))
    }
    val deepest = Parser.parse(alert(Seq.tabulate(100)(k => Seq("(", "|")(k % 2))))
    def depth(e: Expr): Int = e match {
      case Bin(_, l, r) => math.max(depth(l), depth(r)); case SetCard(x) => 1 + depth(x); case _ => 0
    }
    assert(depth(deepest.alert.get) == 50)
  }

  test("property: any text parses or raises a positioned parse error, and a parsed query compiles or is rejected") {
    val keywords = Seq("proc", "file", "ip", "as", "with", "state", "invariant", "cluster", "alert",
      "return", "distinct", "group", "by", "union", "diff", "empty_set", "time", "points", "all",
      "distance", "method", "offline", "online", "outlier", "min", "s", "ms", "start", "write")
    val symbols = Seq("[", "]", "{", "}", "(", ")", ",", ".", "|", "||", "&&", "=", "==", "!=", "<",
      ">=", "+", "-", "*", "/", "#", "->", ":=")
    val numbers = Seq("0", "1", "3", "2.5", "1.2.3", "9999999999", "\u0663", "1\u0663", "\uff11")
    val strings = Seq("\"%x.exe\"", "\"ed\"", "\"DBSCAN(1, 5)\"", "\"DBSCAN(x)\"", "\"", "// c\n")
    val names = Seq("p", "q", "e", "evt", "ss", "a", "amount", "agentid", "x", "@", "\u00e9")
    val word = Gen.oneOf(keywords, symbols, numbers, strings, names).flatMap(Gen.oneOf(_))
    def like(t: Token): Gen[String] = Gen.oneOf(t match {
      case _: Token.Num => numbers; case _: Token.Str => strings; case _: Token.Sym => symbols
      case _            => keywords ++ names
    })
    val soup = Gen.listOf(word).map(_.mkString(" "))
    val text = Gen.oneOf(Gen.asciiPrintableStr, Gen.stringOf(Gen.oneOf(
      Gen.asciiPrintableChar, Gen.oneOf('\u0663', '\u00e9', '\n', '"'), Gen.choose(Char.MinValue, Char.MaxValue))))
    val mutated = for {
      src  <- Gen.oneOf(query1, query2, query3, query4)
      toks  = Lexer.tokenize(src)
      at    = toks.map(_.pos) // token starts; the last is the end
      k    <- Gen.choose(0, toks.size - 2)
      w    <- word
      v    <- like(toks(k))
      cut  <- Gen.choose(0, src.length)
      edit <- Gen.oneOf(
        src.take(at(k)) + src.drop(at(k + 1)),              // delete token k
        src.take(at(k)) + w + " " + src.drop(at(k)),        // insert before it
        src.take(at(k)) + w + " " + src.drop(at(k + 1)),    // replace it
        src.take(at(k)) + v + " " + src.drop(at(k + 1)),    // replace it with one of its kind
        src.take(cut))                                      // cut short
    } yield edit
    val total = Prop.forAll(Gen.frequency(1 -> text, 1 -> soup, 3 -> mutated)) { src =>
      try {
        val q = Parser.parse(src) // a NumberFormatException is an IllegalArgumentException too
        try Columns.compile(q) catch { case e: IllegalArgumentException if !e.isInstanceOf[NumberFormatException] => () }
        true
      } catch { case e: SaqlParseException => e.src == src && 0 <= e.pos && e.pos <= src.length }
    }
    val res = SCTest.check(
      SCTest.Parameters.default.withMinSuccessfulTests(5000).withInitialSeed(Seed(17L)), total)
    assert(res.passed, res.status.toString)
  }

  private def collectStateRefs(e: Expr): Seq[StateRef] = e match {
    case s: StateRef   => Seq(s)
    case Bin(_, l, r)  => collectStateRefs(l) ++ collectStateRefs(r)
    case SetCard(x)    => collectStateRefs(x)
    case _             => Nil
  }
}
