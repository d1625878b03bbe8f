package repro.report

import repro.SparkSpec
import repro.core.{Atom, Columns}
import repro.events.MonitoringData

class TablesSpec extends SparkSpec {

  test("fmt aligns columns and separates header") {
    val t = Tables.fmt(Seq("a", "long_header"), Seq(Seq("xx", "1"), Seq("y", "22")))
    val lines = t.split('\n')
    assert(lines.length == 4)
    assert(lines.forall(_.length == lines.head.length))
    assert(lines(1).forall(c => c == '-' || c == '|'))
  }

  test("concurrentQueries builds one subsuming master plus n-1 dependents") {
    val qs = Tables.concurrentQueries(8)
    assert(qs.size == 8)
    assert(qs.map(_.name).distinct.size == 8)
    // Every event a dependent could match, the master matches too.
    val Seq(master, deps @ _*) = qs.map(Columns.compile)
    val events = MonitoringData.events(spark, sf = 0.002, seed = 1)
    deps.foreach(d => assert(events.filter(Atom.any(d.conjunctions) && !Atom.any(master.conjunctions)).isEmpty))
  }

  test("t1 at tiny scale detects every step (smoke)") {
    val (_, rows) = Tables.t1(spark, sf = 0.01, attackStartMs = 1_800_000L)
    assert(rows.size == 8)
    assert(rows.forall(_.detected))
    assert(rows.filter(_.model == "rule").forall(_.alerts == 1))
  }

  test("t3 at tiny scale preserves results and reduces scans") {
    val (_, rows) = Tables.t3(spark, sf = 0.005, ns = Seq(4))
    val Seq(ind, mdq) = rows
    assert(ind.rowsScanned == 4 * mdq.rowsScanned)
    assert(mdq.rowsCopied < ind.rowsCopied)
  }

  test("t4 rows carry consistent confusion-matrix arithmetic") {
    val (_, rows) = Tables.t4(spark)
    rows.foreach { r =>
      assert(r.tp >= 0 && r.fp >= 0 && r.fn >= 0)
      assert(r.tp + r.fn == r.injected)
      assert(r.precision >= 0 && r.precision <= 1)
      assert(r.recall >= 0 && r.recall <= 1)
    }
  }
}
