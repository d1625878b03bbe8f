package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** Only inputs rejected before the SparkSession is built: a valid run ends in
  * `spark.stop()`, which would stop the suite's shared session. The query is a
  * missing file, so an option that slipped through fails on the file, not in
  * Spark.
  */
class SaqlCliSpec extends AnyFunSuite {

  test("a bad option name, a flag without a value or a bad number fails with the usage line") {
    for ((opts, named) <- Seq(
           Seq("--scale", "0.1")              -> "bad option '--scale'",
           Seq("--sf")                        -> "bad option '--sf' (no value)",
           Seq("--sf", "0.1", "--end")        -> "bad option '--end' (no value)",
           Seq("0.1")                         -> "bad option '0.1'",
           Seq("--sf", "abc")                 -> "bad value 'abc' for --sf",
           Seq("--sf", "0")                   -> "bad value '0' for --sf",
           Seq("--attack-start", "1e3")       -> "bad value '1e3' for --attack-start",
           Seq("--agents", "0,x")             -> "bad value '0,x' for --agents",
           Seq("--start", "y")                -> "bad value 'y' for --start",
           Seq("--end", "")                   -> "bad value '' for --end")) {
      val e = intercept[IllegalArgumentException](SaqlCli.main(("no-such-query.saql" +: opts).toArray))
      assert(e.getMessage.startsWith("usage: SaqlCli <query-name|query-file>") &&
        e.getMessage.contains(named), e.getMessage)
    }
    assert(intercept[IllegalArgumentException](SaqlCli.main(Array.empty)).getMessage.startsWith("usage:"))
  }
}
