package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.events.MonitoringData
import repro.saql.Ast.WindowSpec
import repro.saql.Parser
import TestEvents.statePlan

/** Sliding-window state computation, oracle-checked against DuckDB. */
class StateMaintainerSpec extends SparkSpec {

  private lazy val stream = MonitoringData.events(spark, sf = 0.002, seed = 1).cache()

  private val q2 = Parser.parse(
    """proc p write ip i as evt #time(10 min)
      |state[3] ss { avg_amount := avg(evt.amount) } group by p
      |alert ss[0].avg_amount > 10000
      |return p, ss[0].avg_amount""".stripMargin, "q2")

  test("tumbling window assignment: win = floor(ts / len)") {
    val w = StateMaintainer.assignWindows(stream, WindowSpec(600000, 600000))
    assert(w.filter(col("__win") =!= floor(col("ts") / 600000)).count() == 0)
  }

  test("sliding window assignment duplicates events into overlapping windows") {
    val w = StateMaintainer.assignWindows(stream, WindowSpec(600000, 300000))
    // Each event falls in exactly len/slide = 2 windows (except stream head).
    val perEvent = w.groupBy("event_id").count()
    assert(perEvent.filter(col("count") > 2).count() == 0)
    assert(perEvent.filter(col("count") === 2).count() > 0)
    // Window i covers [i*slide, i*slide+len).
    val bad = w.filter(col("ts") < col("__win") * 300000 ||
                       col("ts") >= col("__win") * 300000 + 600000)
    assert(bad.count() == 0)
  }

  test("with slide > length, an event in a gap between windows is in no window") {
    val w = WindowSpec(60000, 600000) // #time(1 min, 10 min)
    val ts = Seq(30_000L, 300_000L, 630_000L)
    val events = TestEvents.df(spark, ts.map(TestEvents.net(0, _, "a.exe", "1.1.1.1", 100)))
    val assigned = StateMaintainer.assignWindows(events, w).select("ts", "__win").collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toSet
    assert(assigned == Set(30_000L -> 0L, 630_000L -> 1L))
    assert(ts.map(StateMaintainer.windowsOf(_, w)) == Seq(Seq(0L), Nil, Seq(1L)))
  }

  test("matched events honour the pattern predicate") {
    val m = stream.filter(Atom.any(statePlan(q2).conjunctions))
    assert(m.filter(col("event_type") =!= "network" || col("op") =!= "write").count() == 0)
  }

  test("states layout: __win, group keys, state fields") {
    val s = StateMaintainer.states(stream, statePlan(q2))
    assert(s.columns.toSeq == Seq("__win", "p", "avg_amount"))
  }

  test("oracle: avg state per window/group equals DuckDB") {
    val s = StateMaintainer.states(stream, statePlan(q2))
    Oracle.assertEquivalent(s,
      """SELECT CAST(FLOOR(CAST(ts AS DOUBLE) / 600000) AS BIGINT) AS __win,
        |       subj_exe AS p,
        |       AVG(CAST(amount AS DOUBLE)) AS avg_amount
        |FROM events
        |WHERE event_type = 'network' AND op = 'write'
        |GROUP BY 1, 2""".stripMargin,
      "events" -> stream)
  }

  test("oracle: sum state grouped by dstip equals DuckDB") {
    val q4 = Parser.parse(
      """proc p["%sqlservr.exe"] read || write ip i as evt #time(10 min)
        |state ss { amt := sum(evt.amount) } group by i.dstip
        |alert ss.amt > 0
        |return i.dstip, ss.amt""".stripMargin, "q4")
    val s = StateMaintainer.states(stream, statePlan(q4))
    Oracle.assertEquivalent(s,
      """SELECT CAST(FLOOR(CAST(ts AS DOUBLE) / 600000) AS BIGINT) AS __win,
        |       dst_ip AS i_dstip,
        |       CAST(SUM(CAST(amount AS DOUBLE)) AS DOUBLE) AS amt
        |FROM events
        |WHERE event_type = 'network' AND op IN ('read', 'write')
        |  AND subj_exe LIKE '%sqlservr.exe'
        |GROUP BY 1, 2""".stripMargin,
      "events" -> stream)
  }

  test("oracle: count and max aggregates equal DuckDB") {
    val q = Parser.parse(
      """proc p write ip i as evt #time(20 min)
        |state ss { n := count(evt.amount)
        |mx := max(evt.amount) } group by p
        |alert ss.n > 0
        |return p, ss.n, ss.mx""".stripMargin, "qc")
    val s = StateMaintainer.states(stream, statePlan(q))
    Oracle.assertEquivalent(s,
      """SELECT CAST(FLOOR(CAST(ts AS DOUBLE) / 1200000) AS BIGINT) AS __win,
        |       subj_exe AS p,
        |       CAST(COUNT(amount) AS DOUBLE) AS n,
        |       CAST(MAX(CAST(amount AS DOUBLE)) AS DOUBLE) AS mx
        |FROM events
        |WHERE event_type = 'network' AND op = 'write'
        |GROUP BY 1, 2""".stripMargin,
      "events" -> stream)
  }

  test("set aggregate collects distinct object names") {
    val q3 = Parser.parse(
      """proc p1["%apache.exe"] start proc p2 as evt #time(1 hour)
        |state ss { set_proc := set(p2.exe_name) } group by p1
        |alert |ss.set_proc| > 0
        |return p1, ss.set_proc""".stripMargin, "q3")
    val rows = StateMaintainer.states(stream, statePlan(q3)).collect()
    assert(rows.nonEmpty)
    rows.foreach { r =>
      val s = r.getAs[scala.collection.Seq[String]]("set_proc").toSet
      assert(s.subsetOf(Set("httpd-worker.exe", "php-cgi.exe", "rotatelogs.exe")))
      assert(s.size == s.toSeq.size) // distinct
    }
  }

  test("collectStates orders windows ascending and typed values") {
    val plan = statePlan(q2)
    val byWin = StateMaintainer.collectStates(StateMaintainer.states(stream, plan), plan)
    val wins = byWin.map(_._1)
    assert(wins == wins.sorted)
    assert(byWin.head._2.values.forall(_("avg_amount").isInstanceOf[Eval.NumV]))
    assert(byWin.head._2.keys.forall(_.nonEmpty))
  }

  test("group keys match the grouping attribute") {
    val plan = statePlan(q2)
    val byWin = StateMaintainer.collectStates(StateMaintainer.states(stream, plan), plan)
    val keys = byWin.flatMap(_._2.keys).map(_.head).toSet
    assert(keys.contains("chrome.exe")) // benign network writers group by exe
    assert(!keys.exists(_ == "null"))
  }

  test("stateful query without window is rejected") {
    val q = Parser.parse(
      """proc p write ip i as evt
        |state ss { a := avg(evt.amount) } group by p
        |alert ss.a > 0
        |return p""".stripMargin)
    intercept[IllegalArgumentException](Columns.compile(q))
  }

  test("unknown aggregate function is rejected") {
    val q = Parser.parse(
      """proc p write ip i as evt #time(1 min)
        |state ss { a := median(evt.amount) } group by p
        |alert ss.a > 0
        |return p""".stripMargin)
    intercept[IllegalArgumentException](Columns.compile(q))
  }
}
