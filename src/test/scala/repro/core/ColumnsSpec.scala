package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.events.MonitoringData
import repro.saql.Ast._
import repro.saql.Parser
import TestEvents.{rulePlan, statePlan}

class ColumnsSpec extends SparkSpec {

  private lazy val df = MonitoringData.events(spark, sf = 0.002, seed = 0).cache()

  test("entity column mapping is role-sensitive for processes") {
    assert(Columns.entityColumn(ProcKind, "subj", "exe_name") == "subj_exe")
    assert(Columns.entityColumn(ProcKind, "obj", "exe_name") == "obj_exe")
    assert(Columns.entityColumn(ProcKind, "subj", "pid") == "subj_pid")
    assert(Columns.entityColumn(ProcKind, "obj", "pid") == "obj_pid")
  }

  test("file and ip attribute mapping") {
    assert(Columns.entityColumn(FileKind, "obj", "name") == "file_name")
    assert(Columns.entityColumn(IpKind, "obj", "dstip") == "dst_ip")
    assert(Columns.entityColumn(IpKind, "obj", "srcip") == "src_ip")
    assert(Columns.entityColumn(IpKind, "obj", "dstport") == "dst_port")
  }

  test("unknown attribute raises") {
    intercept[IllegalArgumentException](Columns.entityColumn(FileKind, "obj", "dstip"))
  }

  test("identity attributes per kind") {
    assert(Columns.identityAttrs(ProcKind) == Seq("exe_name", "pid"))
    assert(Columns.identityAttrs(FileKind) == Seq("name"))
    assert(Columns.identityAttrs(IpKind) == Seq("dstip"))
  }

  test("event type follows the object kind") {
    assert(Columns.eventTypeOf(ProcKind) == "process")
    assert(Columns.eventTypeOf(FileKind) == "file")
    assert(Columns.eventTypeOf(IpKind) == "network")
  }

  test("resolve: alias attribute and entity defaults") {
    val s = statePlan(Parser.parse("proc p write ip i as evt #time(1 min)\n" +
      "state ss { a := avg(evt.amount) b := count(i.dstip) c := count(i) } " +
      "group by p\nreturn p"))
    assert(s.aggs.map(_.column) == Seq("amount", "dst_ip", "dst_ip")) // ip default
    assert(s.keys == Seq("p" -> "subj_exe"))
  }

  test("resolve: object process attribute") {
    val s = statePlan(Parser.parse("proc p start proc c as evt #time(1 min)\n" +
      "state ss { s := set(c.exe_name) t := set(c) } group by p\nreturn p"))
    assert(s.aggs.map(_.column) == Seq("obj_exe", "obj_exe"))
  }

  test("compare: LIKE for % patterns, equality otherwise") {
    val like = df.filter(Atom("subj_exe", "=", "%sql%").predicate)
    assert(like.count() > 0)
    assert(like.filter(!col("subj_exe").contains("sql")).count() == 0)
    val eq = df.filter(Atom("subj_exe", "=", "chrome.exe").predicate)
    assert(eq.select("subj_exe").distinct().count() == 1)
  }

  test("compare: numeric comparisons filter numeric columns") {
    val hi = df.filter(Atom("amount", ">", "50000").predicate)
    assert(hi.filter(col("amount") <= 50000).count() == 0)
    val eq = df.filter(Atom("agentid", "=", "1").predicate)
    assert(eq.select("agentid").distinct().count() == 1)
  }

  test("compare: an integral literal compares as a Long, exactly above 2^53") {
    import spark.implicits._
    val big = Seq(9007199254740992L, 9007199254740993L).toDF("amount")
    def amounts(op: String, v: String): Seq[Long] =
      big.filter(Atom("amount", op, v).predicate).as[Long].collect().toSeq.sorted
    assert(amounts("=", "9007199254740993") == Seq(9007199254740993L))
    assert(amounts("!=", "9007199254740993") == Seq(9007199254740992L))
    assert(amounts(">", "9007199254740992") == Seq(9007199254740993L))
    assert(amounts("<=", "9007199254740992") == Seq(9007199254740992L))
    // No cast to double: the column compares as it is.
    assert(!big.filter(Atom("amount", "=", "0").predicate).queryExecution.analyzed.toString.contains("cast"))
    assert(amounts(">", "9007199254740992.5") == Nil)
  }

  test("compare: a literal on a string attribute is a string, even when it reads as a number") {
    import spark.implicits._
    val names = Seq("123", "0123", "abc").toDF("file_name")
    def kept(op: String, v: String): Seq[String] =
      names.filter(Atom("file_name", op, v).predicate).as[String].collect().toSeq.sorted
    assert(kept("=", "123") == Seq("123"))
    assert(kept("!=", "123") == Seq("0123", "abc"))
    assert(kept("=", "%12%") == Seq("0123", "123"))
    for (op <- Seq("<", ">", "<=", ">="))
      intercept[IllegalArgumentException](Atom("file_name", op, "123").predicate)
  }

  test("compile rejects a non-numeric literal on a numeric attribute, naming the attribute") {
    for ((src, column) <- Seq(
           "proc p write ip i[dstport = \"https\"] as evt\nreturn p" -> "dst_port",
           "proc p write ip i[srcport != \"%80\"] as evt\nreturn p" -> "src_port",
           "amount > big\nproc p write ip i as evt\nreturn p" -> "amount",
           "proc p[pid = init] start proc c as evt\nreturn p" -> "subj_pid")) {
      val e = intercept[IllegalArgumentException](Columns.compile(Parser.parse(src)))
      assert(e.getMessage.contains(s"'$column' is a numeric attribute"), e.getMessage)
    }
    val e = intercept[IllegalArgumentException](
      Columns.compile(Parser.parse("proc p write file f[name > 123] as evt\nreturn p")))
    assert(e.getMessage.contains("unsupported comparison '>' on string attribute 'file_name'"), e.getMessage)
  }

  test("a number on a string attribute runs through the scheduler, and a word on a numeric one runs no job") {
    val evs = Seq(TestEvents.file(0, 1000L, "a.exe", "write", "123"),
                  TestEvents.file(0, 2000L, "a.exe", "write", "abc"))
    val q = Parser.parse("proc p write file f[name = 123] as evt\nreturn p, f", "numeric_name")
    val alerts = Scheduler.runMasterDependent(TestEvents.df(spark, evs), Seq(q)).alerts("numeric_name")
    assert(alerts.map(a => a.ts -> a.values("f")) == Seq(1000L -> "123"))
    val port = Parser.parse("proc p write ip i[dstport = \"https\"] as evt\nreturn p", "port")
    val (_, executions) = sqlExecutions(
      intercept[IllegalArgumentException](Scheduler.runMasterDependent(TestEvents.df(spark, evs), Seq(port))))
    assert(executions.isEmpty)
  }

  test("compare: negated LIKE") {
    val notLike = df.filter(Atom("subj_exe", "!=", "%chrome%").predicate)
    assert(notLike.filter(col("subj_exe").contains("chrome")).count() == 0)
  }

  test("pattern predicate selects only matching events") {
    val q = Parser.parse(
      """agentid = 0
        |proc p1["%apache.exe"] start proc p2 as evt1
        |return p1, p2""".stripMargin)
    val m = df.filter(Atom.any(Columns.compile(q).conjunctions))
    assert(m.count() > 0)
    assert(m.filter(col("event_type") =!= "process").count() == 0)
    assert(m.filter(col("subj_exe") =!= "apache.exe").count() == 0)
    assert(m.filter(col("agentid") =!= 0).count() == 0)
  }

  test("pattern predicate honours op disjunction") {
    val q = Parser.parse("proc p read || write ip i as evt\nreturn p")
    val m = df.filter(Atom.any(Columns.compile(q).conjunctions))
    assert(m.filter(!col("op").isin("read", "write")).count() == 0)
    assert(m.select("op").distinct().count() == 2)
  }

  test("shared-variable constraints merge across occurrences") {
    val q = Parser.parse(
      """proc p1["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt1
        |proc p2["%sbblv.exe"] read file f1 as evt2
        |return p1""".stripMargin)
    // evt2's f1 occurrence has no local preds, but inherits the LIKE
    // constraint from evt1's declaration of f1.
    val m = df.filter(rulePlan(q).patterns(1).predicate)
    assert(m.filter(!col("file_name").like("%backup1.dmp")).count() == 0)
  }

  test("compile: a pattern is a conjunction of atoms, its ops sorted") {
    val q = Parser.parse(
      """agentid = 1
        |proc p["%sqlservr.exe"] write || read ip i as evt
        |return p""".stripMargin)
    val Seq(p) = rulePlan(q).patterns
    assert(p.atoms == Seq(Atom("event_type", "=", "network"), Atom("op", "in", "read,write"),
      Atom("subj_exe", "=", "%sqlservr.exe"), Atom("agentid", "=", "1")))
    assert(Atom("op", "in", "read,write") == rulePlan(Parser.parse("proc p read || write ip i as evt\nreturn p"))
      .patterns.head.atoms(1))
  }

  test("Atom.any factors the most shared atom and keeps the rows of the flat OR") {
    val Seq(a, b, c, d) = Seq("a", "b", "c", "d").map(v => Atom("subj_exe", "!=", v))
    val terms = Seq(Seq(a, b), Seq(d, b), Seq(a, c))
    // Built as (a ∧ (b ∨ c)) ∨ (d ∧ b): the test `a` appears once.
    assert(Atom.any(terms).toString.split(java.util.regex.Pattern.quote(a.predicate.toString), -1).length == 2)
    assert(Atom.any(Nil).toString == "false" && Atom.any(Seq(Nil)).toString == "true")
    for (ts <- Seq(terms, Seq(Seq(a, b), Seq(a)), Seq(Seq(b, a), Seq(a, b), Seq(a, a))))
      assert(df.filter(Atom.any(ts)).count() == df.filter(ts.map(Atom.all).reduce(_ || _)).count(), ts)
  }

  // ------------------------------------------- compile-time rejections

  private def rejects(src: String, why: String): Unit = {
    val e = intercept[IllegalArgumentException](Columns.compile(Parser.parse(src)))
    assert(e.getMessage.contains(why), e.getMessage)
  }

  private val netState = "proc p write ip i as evt #time(10 s)\n" +
    "state ss { amt := sum(evt.amount) } group by p\n"

  test("compile rejects an unknown state field in alert or return") {
    rejects(netState + "alert ss.nope > 0\nreturn p, ss.amt", "unknown state field 'ss.nope'")
    rejects(netState + "alert ss.amt > 0\nreturn p, ss[1].nope", "unknown state field 'ss.nope'")
  }

  test("compile rejects a state index beyond the declared history") {
    rejects(netState + "alert ss[5].amt > 0\nreturn p, ss.amt", "'ss[5].amt' is beyond the state history of 1")
    rejects("proc p write ip i as evt #time(10 s)\nstate[2] ss { amt := sum(evt.amount) } group by p\n" +
      "return p, ss[2].amt", "beyond the state history of 2")
  }

  test("compile rejects a state with no field, a field named like a key, and a string sum") {
    val net = "proc p write ip i as evt #time(10 s)\n"
    rejects(net + "state ss { } group by p\nreturn p", "state block 'ss' defines no field")
    rejects(net + "state ss { p := count(evt.amount) } group by p\nreturn p",
      "state field 'p' has the name of a group-by key")
    for (f <- Seq("avg", "sum", "max", "min"))
      rejects(net + s"state ss { x := $f(i.dstip) } group by p\nreturn p", s"$f(i.dstip) needs a numeric attribute")
    assert(Columns.compile(Parser.parse(net + "state ss { n := count(i.dstip)\nips := set(i.dstip) } group by p\nreturn p"))
      .isInstanceOf[StatePlan])
  }

  test("compile rejects a #time it would ignore, naming the query: one on a rule query, or a second one") {
    def rejected(src: String): String =
      intercept[IllegalArgumentException](Columns.compile(Parser.parse(src, "timed"))).getMessage
    val rule = rejected("proc p write file f as evt1 #time(1 s)\nproc p read file f as evt2\nwith evt1 -> evt2\nreturn p")
    assert(rule.contains("query 'timed'") && rule.contains("a rule query takes no #time window"), rule)
    val state = "state ss { n := count(evt1.amount) } group by p\nreturn p, ss.n"
    val two = rejected(s"proc p write ip i as evt1 #time(10 s)\nproc p read ip i as evt2 #time(20 s)\n$state")
    assert(two.contains("query 'timed'") && two.contains("different #time windows"), two)
    val same = Columns.compile(Parser.parse(s"proc p write ip i as evt1 #time(10 s)\nproc p read ip i as evt2 #time(10 s)\n$state"))
    assert(same.asInstanceOf[StatePlan].window == WindowSpec(10000, 10000))
  }

  test("compile: a pattern's join is its identity equalities and ts orders") {
    val Seq(head, next) = rulePlan(repro.queries.DemoQueries.r2MalwareInfection(0L)).patterns
    assert(head.join.isEmpty)
    assert(next.equalities == Seq(MatchCol("evt1", "obj_exe") -> MatchCol("evt2", "subj_exe"),
      MatchCol("evt1", "obj_pid") -> MatchCol("evt2", "subj_pid")))
    assert(next.before == Seq(MatchCol("evt1", "ts") -> MatchCol("evt2", "ts")))
  }

  test("compile rejects a return attribute that is not the group key") {
    rejects(netState + "return p.pid, ss.amt", "not a group-by key")
  }

  test("compile rejects an unknown return variable") {
    rejects("proc p1 write file f1 as evt1\nreturn distinct p1, zz", "unknown variable 'zz'")
    rejects(netState + "return zz, ss.amt", "unknown variable 'zz'")
  }

  test("compile rejects a variable declared with conflicting entity kinds") {
    rejects("proc a start proc x as e1\nproc b write file x as e2\nwith e1 -> e2\nreturn a, b",
      "variable x declared with conflicting kinds")
  }

  test("compile rejects an unknown global attribute") {
    rejects("foo = 1\nproc p1 write file f1 as evt1\nreturn p1", "unknown global attribute 'foo'")
  }

  private val outlier = "proc p write ip i as evt #time(10 s)\n" +
    "state ss { amt := sum(evt.amount) } group by i.dstip\n"

  test("compile rejects an unknown cluster(points=...) field") {
    rejects(outlier +
      "cluster(points=all(ss.nope), distance=\"ed\", method=\"DBSCAN(10, 2)\")\n" +
      "alert cluster.outlier\nreturn i.dstip", "unknown state field 'nope' in cluster points")
  }

  test("compile rejects DBSCAN with fewer than two args") {
    rejects(outlier +
      "cluster(points=all(ss.amt), distance=\"ed\", method=\"DBSCAN(10)\")\n" +
      "alert cluster.outlier\nreturn i.dstip", "needs (eps, minPts)")
  }

  test("compile rejects a cluster distance other than ed or a method other than DBSCAN") {
    rejects(outlier +
      "cluster(points=all(ss.amt), distance=\"cosine\", method=\"DBSCAN(10, 2)\")\n" +
      "alert cluster.outlier\nreturn i.dstip", "distance 'cosine'")
    rejects(outlier +
      "cluster(points=all(ss.amt), distance=\"ed\", method=\"KMEANS(10, 2)\")\n" +
      "alert cluster.outlier\nreturn i.dstip", "method 'KMEANS'")
  }

  test("compile: a rule query's return evt1.id reads the event id") {
    val r = rulePlan(Parser.parse("proc p1 write file f1 as evt1\nreturn evt1.id, p1"))
    assert(r.returns == Seq("evt1_id" -> MatchCol("evt1", "event_id"), "p1" -> MatchCol("evt1", "subj_exe")))
  }

  test("compile records the event columns a plan reads") {
    import repro.queries.DemoQueries
    // r2: p2 joins its start (object columns) to its write (subject columns);
    // the atoms' columns (event_type, op, agentid) reach the driver as bits.
    assert(Columns.compile(DemoQueries.r2MalwareInfection(0L)).reads == Set(
      "ts", "subj_exe", "subj_pid", "obj_exe", "obj_pid", "file_name"))
    assert(Columns.compile(DemoQueries.a3OutlierDbscan(1L)).reads == Set("ts", "dst_ip", "amount"))
    assert(Columns.compile(Parser.parse("proc p write ip i[srcport > 0] as evt\nreturn evt.id"))
      .reads == Set("ts", "event_id"))
  }
}
